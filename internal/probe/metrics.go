package probe

import "arest/internal/obs"

// Metrics is the prober's bound instrument set ("probe" stage). The zero
// value is fully functional: nil counters are no-ops, so Tracer code
// instruments unconditionally. All counters are event counts that depend
// only on what is probed, never on scheduling — they sit inside the
// determinism contract. The RTT histogram is deterministic too under the
// simulator (synthetic hop-count RTTs); against a real raw-socket Conn it
// is not.
type Metrics struct {
	sent        [2]*obs.Counter // by Method
	halts       [5]*obs.Counter // by HaltReason
	replies     *obs.Counter
	retries     *obs.Counter
	gaps        *obs.Counter
	decodeErr   *obs.Counter
	exchangeErr *obs.Counter

	revealTriggers *obs.Counter
	revealSuccess  *obs.Counter
	revealedHops   *obs.Counter
	revealErr      *obs.Counter

	pings       *obs.Counter
	pingReplies *obs.Counter
	ipidSamples *obs.Counter
	ipidReplies *obs.Counter

	rttUs *obs.Histogram
}

// NewMetrics binds the probe instruments to reg; a nil registry gives the
// zero Metrics, which records nothing.
func NewMetrics(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		sent:           [2]*obs.Counter{MethodUDP: reg.Counter("probe", "sent.udp"), MethodICMP: reg.Counter("probe", "sent.icmp")},
		replies:        reg.Counter("probe", "replies"),
		retries:        reg.Counter("probe", "retries"),
		gaps:           reg.Counter("probe", "gaps"),
		decodeErr:      reg.Counter("probe", "decode_error"),
		exchangeErr:    reg.Counter("probe", "exchange_errors"),
		revealTriggers: reg.Counter("probe", "reveal.triggers"),
		revealSuccess:  reg.Counter("probe", "reveal.successes"),
		revealedHops:   reg.Counter("probe", "reveal.hops"),
		revealErr:      reg.Counter("probe", "reveal.errors"),
		halts: [5]*obs.Counter{
			HaltReached: reg.Counter("probe", "halt.reached"),
			HaltGaps:    reg.Counter("probe", "halt.gaps"),
			HaltMaxTTL:  reg.Counter("probe", "halt.max_ttl"),
			HaltLoop:    reg.Counter("probe", "halt.loop"),
			HaltError:   reg.Counter("probe", "halt.error"),
		},
		pings:       reg.Counter("probe", "pings"),
		pingReplies: reg.Counter("probe", "ping_replies"),
		ipidSamples: reg.Counter("probe", "ipid_samples"),
		ipidReplies: reg.Counter("probe", "ipid_replies"),
		rttUs:       reg.Histogram("probe", "rtt_us"),
	}
}
