package netsim

import (
	"testing"

	"arest/internal/obs"
	"arest/internal/pkt"
)

// TestInstrumentCountsForwardingAndReplies sends a TTL-expiring probe and a
// delivered probe through an instrumented chain and checks the per-reason
// accounting.
func TestInstrumentCountsForwardingAndReplies(t *testing.T) {
	c := buildChain(t)
	reg := obs.New()
	c.net.Instrument(reg)

	// TTL 2 expires at pe1 → one time-exceeded.
	if _, err := c.net.Send(c.vp, udpProbe(c.vp, c.target, 2, 33434), nil); err != nil {
		t.Fatal(err)
	}
	// Full-TTL probe reaches the target host → port unreachable from host.
	if _, err := c.net.Send(c.vp, udpProbe(c.vp, c.target, 30, 33434), nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["netsim.ttl_expired"] != 1 {
		t.Errorf("ttl_expired = %d, want 1", s.Counters["netsim.ttl_expired"])
	}
	if s.Counters["netsim.icmp.time_exceeded"] != 1 {
		t.Errorf("time_exceeded = %d, want 1", s.Counters["netsim.icmp.time_exceeded"])
	}
	if s.Counters["netsim.host_replies"] != 1 {
		t.Errorf("host_replies = %d, want 1", s.Counters["netsim.host_replies"])
	}
	if s.Counters["netsim.forwarded"] == 0 {
		t.Errorf("forwarded = 0, want > 0")
	}
}

// TestInstrumentCountsDropsByReason checks the no-route and rate-limit
// reasons.
func TestInstrumentCountsDropsByReason(t *testing.T) {
	c := buildChain(t)
	reg := obs.New()
	c.net.Instrument(reg)

	// Unrouted destination.
	if _, err := c.net.Send(c.vp, udpProbe(c.vp, a("203.0.113.7"), 8, 33434), nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["netsim.drop.no_route"]; got != 1 {
		t.Errorf("drop.no_route = %d, want 1", got)
	}

	// Force rate limiting: loss probability 1 on every router, probe
	// expiring mid-path.
	for _, r := range c.net.Routers() {
		r.Profile.ICMPLossProb = 1
	}
	if _, err := c.net.Send(c.vp, udpProbe(c.vp, c.target, 2, 33434), nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["netsim.drop.rate_limit"]; got != 1 {
		t.Errorf("drop.rate_limit = %d, want 1", got)
	}
}

// TestSelfLoopingFIBEntryAnswersEveryTTL installs a self-looping FIB entry
// (micro-loop fault injection) and checks that every TTL beyond the loop
// point expires at the SAME router — the period-1 loop signature the
// tracer's consecutive-responder halt must catch.
func TestSelfLoopingFIBEntryAnswersEveryTTL(t *testing.T) {
	// Plain-IP chain: the override hooks the IP forwarding decision, so the
	// looping router must not label-push the packet first.
	c := buildChain(t, withMode(ModeIP), withPlanes(false, false))
	owner := c.net.resolve(c.target).owner
	if owner < 0 {
		t.Fatal("target has no owner")
	}
	// pe1 (hop 2 from the VP) forwards the target's traffic to itself.
	c.net.SetNextHopOverride(c.pe1.ID, owner, c.pe1.ID)

	// TTL 2 expires on arrival at pe1, before its forwarding decision; the
	// loop answers from TTL 3 on.
	var addrs []string
	for ttl := uint8(3); ttl <= 7; ttl++ {
		d, err := c.net.Send(c.vp, udpProbe(c.vp, c.target, ttl, 33434), nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.Reply == nil {
			t.Fatalf("ttl %d: no reply", ttl)
		}
		var ip pkt.IPv4
		if err := pkt.UnmarshalIPv4Into(&ip, d.Reply); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ip.Src.String())
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i] != addrs[0] {
			t.Fatalf("loop replies not from one router: %v", addrs)
		}
	}

	// Clearing the override restores normal delivery.
	c.net.ClearNextHopOverrides()
	d, err := c.net.Send(c.vp, udpProbe(c.vp, c.target, 30, 33434), nil)
	if err != nil || d.Reply == nil {
		t.Fatalf("after clear: delivery failed (err=%v)", err)
	}
}
