package netsim

import (
	"math/rand"
	"testing"

	"arest/internal/mpls"
	"arest/internal/pkt"
)

// TestSendRobustAgainstArbitraryBytes throws random byte strings at Send:
// the simulator must reject or drop them without panicking — the same
// robustness a kernel forwarding path needs.
func TestSendRobustAgainstArbitraryBytes(t *testing.T) {
	c := buildChain(t)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(120)
		b := make([]byte, n)
		rng.Read(b)
		// Send must either return an error or a (possibly empty) delivery.
		if _, err := c.net.Send(c.vp, b, nil); err == nil && n >= pkt.IPv4HeaderLen {
			continue
		}
	}
}

// TestSendRobustAgainstMutatedProbes flips bytes in otherwise-valid probes.
func TestSendRobustAgainstMutatedProbes(t *testing.T) {
	c := buildChain(t)
	rng := rand.New(rand.NewSource(7))
	base := udpProbe(c.vp, c.target, 12, 33434)
	for i := 0; i < 2000; i++ {
		b := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		_, _ = c.net.Send(c.vp, b, nil) // must not panic
	}
}

// TestForwardingNeverLoops checks the loop bound across random topologies
// and random (valid) probes: Send always terminates with a bounded path.
func TestForwardingNeverLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 25; iter++ {
		n := New(int64(iter))
		prof := DefaultProfile(mpls.VendorCisco)
		routers := make([]*Router, 0, 12)
		for i := 0; i < 12; i++ {
			mode := []TunnelMode{ModeIP, ModeLDP, ModeSR}[rng.Intn(3)]
			r := n.AddRouter(RouterConfig{ASN: 100, Vendor: mpls.VendorCisco, Profile: prof,
				SREnabled: mode == ModeSR, LDPEnabled: mode == ModeLDP, Mode: mode})
			routers = append(routers, r)
			if i > 0 {
				n.Connect(routers[rng.Intn(i)].ID, r.ID, 10)
			}
		}
		// A few extra links for cycles in the graph.
		for k := 0; k < 5; k++ {
			i, j := rng.Intn(12), rng.Intn(12)
			if i == j {
				continue
			}
			if _, dup := routers[i].InterfaceTo(routers[j].ID); dup {
				continue
			}
			n.Connect(routers[i].ID, routers[j].ID, 10)
		}
		vp := a("172.16.0.1")
		tgt := a("100.9.0.5")
		n.AddHost(vp, routers[0].ID)
		n.AddHost(tgt, routers[11].ID)
		n.Compute()
		for ttl := 1; ttl <= 40; ttl++ {
			var path []RouterID
			if _, err := n.send(vp, udpProbe(vp, tgt, uint8(ttl), uint16(33434+ttl%4)), nil, &path); err != nil {
				t.Fatal(err)
			}
			if len(path) >= maxSteps {
				t.Fatalf("iter %d ttl %d: forwarding loop, path len %d", iter, ttl, len(path))
			}
		}
	}
}

// TestReplyAlwaysParseable: every non-nil reply the simulator emits must be
// decodable by the prober-side codecs — the wire-format contract.
func TestReplyAlwaysParseable(t *testing.T) {
	for _, opts := range [][]chainOpt{
		{},
		{withMode(ModeLDP), withPlanes(false, true)},
		{withPropagate(false)},
		{withRFC4950(false)},
		{withMode(ModeIP), withPlanes(false, false)},
	} {
		c := buildChain(t, opts...)
		for ttl := 1; ttl <= 12; ttl++ {
			d, err := c.net.Send(c.vp, udpProbe(c.vp, c.target, uint8(ttl), 33434), nil)
			if err != nil {
				t.Fatal(err)
			}
			if d.Reply == nil {
				continue
			}
			var rip pkt.IPv4
			var m pkt.ICMP
			if err := pkt.UnmarshalIPv4Into(&rip, d.Reply); err != nil {
				t.Fatalf("unparseable reply IP at ttl %d: %v", ttl, err)
			}
			if err := pkt.UnmarshalICMPInto(&m, rip.Payload); err != nil {
				t.Fatalf("unparseable reply ICMP at ttl %d: %v", ttl, err)
			}
		}
	}
}
