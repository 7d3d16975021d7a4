// The tracer's probe/exchange loop sits directly on the wire path: its
// pooled scratch and stateless probe IDs are what keep Trace, Ping and
// SampleIPID within their allocation budgets (DESIGN.md §11).
package probe

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/pkt"
)

// Conn abstracts the raw-socket boundary: one probe out, at most one reply
// back, both as serialized IPv4 packets, plus the measured round-trip time
// in milliseconds (zero when no reply arrived).
//
// ctx bounds the exchange: implementations that wait on a real wire must
// return promptly once ctx is done (context.Cause as the error), so a
// campaign cancellation lands within one probe exchange. The simulator
// backend completes instantly and may ignore ctx.
//
// Ownership: wire is only valid for the duration of the call — the tracer
// reuses the buffer for the next probe, so implementations must not retain
// it. The returned reply, conversely, passes to the tracer, which may hold
// references into it (quoted label stacks); implementations must hand back
// a buffer they will not reuse or mutate.
type Conn interface {
	Exchange(ctx context.Context, src netip.Addr, wire []byte) (reply []byte, rttMs float64, err error)
}

// hopMilliseconds is the synthetic per-hop one-way delay the simulator
// backend reports.
const hopMilliseconds = 0.35

// NetsimConn adapts a netsim.Network to the Conn interface, synthesizing
// RTTs from the simulated forward and return hop counts.
type NetsimConn struct {
	Net *netsim.Network
}

// Exchange implements Conn over the simulator. The simulated exchange is
// instantaneous, so ctx is deliberately unread: checking it here would let
// a racy cancellation perturb which probes of an in-flight trace complete,
// while the trace/TTL-boundary checks in Trace keep cancellation points
// schedule-independent.
func (c NetsimConn) Exchange(_ context.Context, src netip.Addr, wire []byte) ([]byte, float64, error) {
	d, err := c.Net.Send(src, wire)
	if err != nil {
		return nil, 0, err
	}
	return d.Reply, hopMilliseconds * float64(d.FwdHops+d.RetHops), nil
}

// Method selects the probe type of a traceroute.
type Method int

const (
	// MethodUDP sends UDP datagrams to high ports (the TNT default: UDP
	// probes reveal the most links).
	MethodUDP Method = iota
	// MethodICMP sends echo requests (classic ICMP traceroute); the
	// destination answers with an echo reply instead of port unreachable.
	MethodICMP
)

// Probe payload contents, shared across all probes (never mutated).
var (
	probePayload = []byte("arest-tnt-probe")
	pingPayload  = []byte("arest-ping")
	ipidPayload  = []byte("arest-ipid")
)

// probeScratch bundles the per-call transient state of one trace, ping, or
// IP-ID sample: packets under construction, their wire buffers, decoded
// replies, and the trace under construction. It lives in a package-level
// pool rather than on the Tracer so a single Tracer stays safe for
// concurrent use (the alias resolver shares one across its workers).
//
// The pool sits outside the determinism contract (DESIGN.md §11): every
// field is fully overwritten before it is read — whole-struct assignments,
// [:0] reslices before appends — so probe bytes depend only on the probe's
// coordinates, never on which scratch the pool returns. Nothing a caller
// keeps points into it: Trace copies its hops out before the scratch goes
// back to the pool.
type probeScratch struct {
	payload []byte     // serialized probe payload (UDP datagram or ICMP echo)
	wire    []byte     // serialized probe IP packet
	ip      pkt.IPv4   // probe under construction
	echo    pkt.ICMP   // echo request under construction
	udp     pkt.UDP    // UDP datagram under construction
	rip     pkt.IPv4   // decoded reply IP header (payload aliases the reply)
	rm      pkt.ICMP   // decoded reply ICMP (body/extensions alias the reply)
	qip     pkt.IPv4   // decoded quoted original datagram
	stack   mpls.Stack // label stack of the last decoded reply

	// hops is the trace under construction; each hop's stack is a
	// sub-slice of lses, which only grows during one trace (a hop whose
	// stack predates a regrowth keeps the old, unchanged array).
	hops []Hop
	lses mpls.Stack
}

// keep appends hop to the trace under construction, moving its stack
// into lses.
func (s *probeScratch) keep(hop Hop) {
	hop.Stack = s.stash(hop.Stack)
	s.hops = append(s.hops, hop)
}

// stash copies st to the end of lses and returns the copy; an empty
// stack becomes nil.
func (s *probeScratch) stash(st mpls.Stack) mpls.Stack {
	if len(st) == 0 {
		return nil
	}
	n := len(s.lses)
	s.lses = append(s.lses, st...)
	return s.lses[n:len(s.lses):len(s.lses)]
}

// ownedHops copies the trace under construction out of the scratch: one
// exact Hops slice, and one exact LSE slab that every hop's stack slices
// with a full slice expression (the layout the v3 archive decoder
// returns). It returns nil when no hop was kept.
func (s *probeScratch) ownedHops() []Hop {
	if len(s.hops) == 0 {
		return nil
	}
	n := 0
	for i := range s.hops {
		n += len(s.hops[i].Stack)
	}
	var out Trace
	(&Trace{Hops: s.hops}).CopyInto(&out, make([]Hop, 0, len(s.hops)), make(mpls.Stack, 0, n))
	return out.Hops
}

var probeScratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

// Tracer is a Paris traceroute engine with TNT extensions.
type Tracer struct {
	Conn Conn
	// VP is the source address probes are sent from.
	VP netip.Addr
	// Method selects UDP (default) or ICMP-echo probing.
	Method Method
	// MaxTTL bounds the forward TTL sweep.
	MaxTTL int
	// MaxGaps stops the sweep after this many consecutive silent hops.
	MaxGaps int
	// BasePort is the UDP destination port of flow 0; Paris flow IDs
	// offset it.
	BasePort uint16
	// Reveal enables TNT revelation of hidden tunnel content (DPR).
	Reveal bool
	// Retries is how many extra probes a silent hop gets before being
	// recorded as a gap (rate-limited routers often answer a retry).
	Retries int
	// Metrics, when non-nil, receives per-probe accounting (probes sent,
	// replies, retries, gaps, decode failures, revelation outcomes); see
	// NewMetrics. Recording never changes probe bytes or trace results.
	Metrics *Metrics
}

// NewTracer returns a tracer with TNT-like defaults.
//
// A Tracer holds no mutable state: probe identifiers derive from
// (VP, destination, flow, TTL, attempt), so one Tracer may run traces,
// pings, and IP-ID samples from any number of goroutines concurrently, and
// a retry of the same probe still carries a fresh IP-ID (rate-limited
// routers draw a fresh loss coin per IP-ID). Scratch buffers come from a
// package pool per call, never from the Tracer itself.
func NewTracer(conn Conn, vp netip.Addr) *Tracer {
	return &Tracer{Conn: conn, VP: vp, MaxTTL: 32, MaxGaps: 3, BasePort: 33434, Reveal: true, Retries: 2}
}

// probeID derives the 16-bit IP identifier of one probe from the probe's
// coordinates. Replacing the old mutable sequence field with a hash makes
// every probe's bytes a pure function of what is being probed — the basis
// of deterministic parallel sweeps — while keeping IDs well spread so
// distinct attempts land on distinct rate-limiter coins.
func (t *Tracer) probeID(dst netip.Addr, flow uint16, ttl uint8, attempt int) uint16 {
	v := uint64(flow)<<32 | uint64(ttl)<<16 | uint64(uint16(attempt))
	s, d := t.VP.As4(), dst.As4()
	v ^= uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32
	v ^= uint64(d[0])<<24 | uint64(d[1])<<16 | uint64(d[2])<<8 | uint64(d[3])
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return uint16(v ^ (v >> 31))
}

// Traceroute UDP destination ports live in [PortRangeLo, PortRangeHi): at
// or above the classic traceroute base and strictly below the port-space
// ceiling, so a probe can never land on a well-known or zero port.
const (
	PortRangeLo = 33434
	PortRangeHi = 65535
)

// flowPort maps a Paris flow ID onto the UDP destination port. The naive
// BasePort+flowID wraps uint16 for large flow IDs, landing probes on
// well-known ports — where a real service might answer (or a firewall
// drop), breaking the port-unreachable halt semantics — so the sum is
// folded back into [PortRangeLo, PortRangeHi). Flow IDs that never reached
// the old wrap point keep their exact historical port.
func (t *Tracer) flowPort(flowID uint16) uint16 {
	base := uint32(t.BasePort)
	if base < PortRangeLo || base >= PortRangeHi {
		base = PortRangeLo
	}
	const span = PortRangeHi - PortRangeLo
	return uint16(PortRangeLo + (base-PortRangeLo+uint32(flowID))%span)
}

// loopRunLen is the number of consecutive identical responding addresses
// that halts a trace as a loop: a period-1 forwarding loop (a router whose
// FIB entry points at itself, e.g. during a micro-loop) answers every TTL
// from the same interface, which the revisit check below can never see.
const loopRunLen = 3

// Trace runs one Paris traceroute toward dst with the given flow ID. The
// 5-tuple is held constant across the TTL sweep (per-flow load balancers
// then keep the path stable); distinct flow IDs map to distinct UDP
// destination ports within the traceroute range (see flowPort).
//
// Trace is fail-soft: a probe exchange error consumes the same retry
// budget as a silent hop, and an error that survives the budget halts the
// sweep with HaltError and the error text on the trace — every hop
// measured before the failure is kept. The error return reports
// cancellation only: once ctx is done the sweep stops at the next TTL
// boundary and Trace returns (nil, context.Cause(ctx)). Cancellation never
// becomes trace content — an aborted trace is discarded, never recorded as
// degraded — so archived bytes stay independent of when a cancel landed.
// For probe-level failures callers decide whether a degraded trace is
// acceptable via Trace.Failed.
//
// The sweep and revelation build the trace in pooled scratch; the
// returned Trace owns its memory: one Hops slice and one LSE slab that
// the hops' stacks share, allocated at their exact sizes.
func (t *Tracer) Trace(ctx context.Context, dst netip.Addr, flowID uint16) (*Trace, error) {
	s := probeScratchPool.Get().(*probeScratch)
	defer probeScratchPool.Put(s)
	halt, errText, err := t.sweep(ctx, s, dst, t.flowPort(flowID))
	if err != nil {
		return nil, err
	}
	var revealErrs []string
	// A trace halted by a transport error skips revelation: its Conn just
	// failed repeatedly, so auxiliary traces would only burn more probes.
	if t.Reveal && halt != HaltError {
		if revealErrs, err = t.reveal(ctx, s); err != nil {
			return nil, err
		}
	}
	return &Trace{VP: t.VP, Dst: dst, FlowID: flowID, Hops: s.ownedHops(), Halt: halt,
		Err: errText, RevealErrs: revealErrs}, nil
}

// sweep runs the TTL sweep toward dst on UDP destination port dport (the
// ICMP identifier under MethodICMP) into s.hops, and returns why it
// halted, with the transport error's text when that is HaltError. Its
// error return is cancellation only, as Trace's is.
func (t *Tracer) sweep(ctx context.Context, s *probeScratch, dst netip.Addr, dport uint16) (HaltReason, string, error) {
	s.hops, s.lses = s.hops[:0], s.lses[:0]
	halt, errText := HaltMaxTTL, ""
	gaps := 0
	var lastAddr netip.Addr
	run := 0
sweep:
	for ttl := 1; ttl <= t.MaxTTL; ttl++ {
		if ctx.Err() != nil {
			return 0, "", context.Cause(ctx)
		}
		hop, err := t.probeOnce(ctx, s, dst, uint8(ttl), dport, 0)
		for retry := 0; (err != nil || !hop.Responded()) && retry < t.Retries; retry++ {
			if ctx.Err() != nil {
				return 0, "", context.Cause(ctx)
			}
			t.Metrics.countRetry()
			hop, err = t.probeOnce(ctx, s, dst, uint8(ttl), dport, retry+1)
		}
		if err != nil {
			if ctx.Err() != nil {
				// A cancelled exchange is an abort, not a transport fault:
				// mapping it to HaltError would archive timing-dependent
				// bytes.
				return 0, "", context.Cause(ctx)
			}
			halt, errText = HaltError, err.Error()
			break sweep
		}
		s.keep(hop)
		if !hop.Responded() {
			t.Metrics.countGap()
			gaps++
			run = 0
			if gaps >= t.MaxGaps {
				halt = HaltGaps
				break sweep
			}
			continue
		}
		gaps = 0
		// Period-1 loops: the same address answering loopRunLen consecutive
		// TTLs. Longer-period loops revisit an address with a gap > 1 and
		// are caught by the revisit check.
		if hop.Addr == lastAddr {
			run++
		} else {
			lastAddr, run = hop.Addr, 1
		}
		if run >= loopRunLen || revisits(s.hops[:len(s.hops)-1], hop.Addr, ttl) {
			halt = HaltLoop
			break sweep
		}
		if !hop.DecodeError &&
			(hop.ICMPType == pkt.ICMPDestUnreachable ||
				(t.Method == MethodICMP && hop.ICMPType == pkt.ICMPEchoReply)) {
			halt = HaltReached
			break sweep
		}
	}
	t.Metrics.countHalt(halt)
	return halt, errText, nil
}

// revisits reports whether addr, answering at ttl, last answered among
// hops more than one TTL earlier: a forwarding loop of period > 1. The
// hops are few, so a backward scan beats any per-trace map.
func revisits(hops []Hop, addr netip.Addr, ttl int) bool {
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].Addr == addr {
			return ttl-hops[i].TTL > 1
		}
	}
	return false
}

// probeOnce sends a single probe (UDP or ICMP echo, per Method) and parses
// the reply into a Hop. attempt distinguishes retries of the same hop so
// each retry carries a distinct IP-ID. All construction and decoding goes
// through s; the returned Hop's Stack aliases s.stack, valid until the
// next probeOnce on s.
func (t *Tracer) probeOnce(ctx context.Context, s *probeScratch, dst netip.Addr, ttl uint8, dport uint16, attempt int) (Hop, error) {
	var err error
	proto := uint8(pkt.ProtoUDP)
	switch t.Method {
	case MethodICMP:
		// Paris semantics for ICMP: the identifier is the flow key, so it
		// derives from dport; the sequence varies per probe.
		s.echo = pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: dport, Seq: uint16(ttl), Body: probePayload}
		s.payload, err = s.echo.AppendMarshal(s.payload[:0])
		if err != nil {
			return Hop{}, fmt.Errorf("probe: %w", err)
		}
		proto = pkt.ProtoICMP
	default:
		s.udp = pkt.UDP{SrcPort: 33434, DstPort: dport, Payload: probePayload}
		s.payload, err = s.udp.AppendMarshal(s.payload[:0], t.VP, dst)
		if err != nil {
			return Hop{}, fmt.Errorf("probe: %w", err)
		}
	}
	s.ip = pkt.IPv4{TTL: ttl, Protocol: proto, ID: t.probeID(dst, dport, ttl, attempt),
		Src: t.VP, Dst: dst, Payload: s.payload}
	s.wire, err = s.ip.AppendMarshal(s.wire[:0])
	if err != nil {
		return Hop{}, fmt.Errorf("probe: %w", err)
	}
	t.Metrics.countSent(t.Method)
	reply, rtt, err := t.Conn.Exchange(ctx, t.VP, s.wire)
	if err != nil {
		t.Metrics.countExchangeError()
		return Hop{}, fmt.Errorf("probe: %w", err)
	}
	hop := Hop{TTL: int(ttl)}
	if reply == nil {
		return hop, nil
	}
	if err := pkt.UnmarshalIPv4Into(&s.rip, reply); err != nil {
		// The IP header itself is mangled: no responder address to keep.
		t.Metrics.countDecodeError()
		return hop, nil
	}
	hop.Addr = s.rip.Src
	hop.ReplyTTL = s.rip.TTL
	hop.RTT = rtt
	t.Metrics.countReply(rtt)
	if err := pkt.UnmarshalICMPInto(&s.rm, s.rip.Payload); err != nil {
		// Something answered but its ICMP payload fails strict parsing
		// (bad checksum, malformed RFC 4884 structure, …). Discarding the
		// observation would convert a responsive hop into a gap and burn
		// retries on a router that did answer — keep the responder address
		// and RTT, flag the hop, and account for the decode failure.
		hop.DecodeError = true
		t.Metrics.countDecodeError()
		return hop, nil
	}
	hop.ICMPType = s.rm.Type
	hop.ICMPCode = s.rm.Code
	var ok bool
	if s.stack, ok = s.rm.AppendMPLSStack(s.stack[:0]); ok {
		hop.Stack = s.stack
	}
	if s.rm.IsError() {
		if err := pkt.UnmarshalIPv4QuotedInto(&s.qip, s.rm.Body); err == nil {
			hop.QTTL = s.qip.TTL
		}
	}
	return hop, nil
}

// Ping sends one ICMP echo request and reports the received reply TTL,
// which TTL fingerprinting combines with the time-exceeded reply TTL.
func (t *Tracer) Ping(ctx context.Context, dst netip.Addr, id uint16) (replyTTL uint8, ok bool, err error) {
	if ctx.Err() != nil {
		return 0, false, context.Cause(ctx)
	}
	s := probeScratchPool.Get().(*probeScratch)
	defer probeScratchPool.Put(s)
	s.echo = pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: id, Seq: 1, Body: pingPayload}
	s.payload, err = s.echo.AppendMarshal(s.payload[:0])
	if err != nil {
		return 0, false, err
	}
	s.ip = pkt.IPv4{TTL: 64, Protocol: pkt.ProtoICMP, ID: id, Src: t.VP, Dst: dst, Payload: s.payload}
	s.wire, err = s.ip.AppendMarshal(s.wire[:0])
	if err != nil {
		return 0, false, err
	}
	t.Metrics.countPing()
	reply, _, err := t.Conn.Exchange(ctx, t.VP, s.wire)
	if err != nil {
		t.Metrics.countExchangeError()
		return 0, false, err
	}
	if reply == nil {
		return 0, false, nil
	}
	if err := pkt.UnmarshalIPv4Into(&s.rip, reply); err != nil {
		t.Metrics.countDecodeError()
		return 0, false, nil
	}
	if err := pkt.UnmarshalICMPInto(&s.rm, s.rip.Payload); err != nil {
		t.Metrics.countDecodeError()
		return 0, false, nil
	}
	if s.rm.Type != pkt.ICMPEchoReply {
		return 0, false, nil
	}
	t.Metrics.countPingReply()
	return s.rip.TTL, true, nil
}

// InferInitialTTL rounds a received TTL up to the nearest common initial
// value (32, 64, 128, 255), the standard trick for estimating path length
// and vendor signatures from reply TTLs.
func InferInitialTTL(received uint8) uint8 {
	switch {
	case received <= 32:
		return 32
	case received <= 64:
		return 64
	case received <= 128:
		return 128
	default:
		return 255
	}
}

// returnPathLen estimates the return path length of a hop from its reply
// TTL (RTLA).
func returnPathLen(replyTTL uint8) int {
	return int(InferInitialTTL(replyTTL)) - int(replyTTL)
}

// IPIDSample is one IP-ID observation from a direct probe, used by
// MIDAR-style alias resolution.
type IPIDSample struct {
	ID       uint16
	ReplyTTL uint8
}

// SampleIPID probes the address directly (UDP to an unreachable port) and
// returns the IP-ID of the reply, exposing the router's shared IP-ID
// counter. seq distinguishes successive samples of the same address so
// each carries a distinct probe IP-ID.
func (t *Tracer) SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (IPIDSample, bool, error) {
	s := probeScratchPool.Get().(*probeScratch)
	defer probeScratchPool.Put(s)
	dport := t.flowPort(200)
	s.udp = pkt.UDP{SrcPort: 33434, DstPort: dport, Payload: ipidPayload}
	var err error
	s.payload, err = s.udp.AppendMarshal(s.payload[:0], t.VP, dst)
	if err != nil {
		return IPIDSample{}, false, err
	}
	id := t.probeID(dst, dport, uint8(seq>>16), int(uint16(seq)))
	s.ip = pkt.IPv4{TTL: 64, Protocol: pkt.ProtoUDP, ID: id, Src: t.VP, Dst: dst, Payload: s.payload}
	s.wire, err = s.ip.AppendMarshal(s.wire[:0])
	if err != nil {
		return IPIDSample{}, false, err
	}
	t.Metrics.countIPIDSample()
	reply, _, err := t.Conn.Exchange(ctx, t.VP, s.wire)
	if err != nil {
		t.Metrics.countExchangeError()
		return IPIDSample{}, false, err
	}
	if reply == nil {
		return IPIDSample{}, false, nil
	}
	if err := pkt.UnmarshalIPv4Into(&s.rip, reply); err != nil {
		t.Metrics.countDecodeError()
		return IPIDSample{}, false, nil
	}
	t.Metrics.countIPIDReply()
	return IPIDSample{ID: s.rip.ID, ReplyTTL: s.rip.TTL}, true, nil
}
