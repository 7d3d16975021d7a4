package netsim

import (
	"errors"
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/pkt"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// udpProbe builds a serialized traceroute-style UDP probe.
func udpProbe(src, dst netip.Addr, ttl uint8, dport uint16) []byte {
	u := &pkt.UDP{SrcPort: 33434, DstPort: dport, Payload: []byte("probe-payload")}
	ub, err := u.AppendMarshal(nil, src, dst)
	if err != nil {
		panic(err)
	}
	ip := &pkt.IPv4{TTL: ttl, Protocol: pkt.ProtoUDP, ID: uint16(ttl), Src: src, Dst: dst, Payload: ub}
	b, err := ip.AppendMarshal(nil)
	if err != nil {
		panic(err)
	}
	return b
}

func echoProbe(src, dst netip.Addr, ttl uint8, id uint16) []byte {
	m := &pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: id, Seq: 1, Body: []byte("ping")}
	mb, err := m.AppendMarshal(nil)
	if err != nil {
		panic(err)
	}
	ip := &pkt.IPv4{TTL: ttl, Protocol: pkt.ProtoICMP, ID: 9, Src: src, Dst: dst, Payload: mb}
	b, err := ip.AppendMarshal(nil)
	if err != nil {
		panic(err)
	}
	return b
}

type hopReply struct {
	from     netip.Addr
	icmpType uint8
	icmpCode uint8
	stack    mpls.Stack
	replyTTL uint8
}

func parseReply(t *testing.T, b []byte) *hopReply {
	t.Helper()
	if b == nil {
		return nil
	}
	var ip pkt.IPv4
	if err := pkt.UnmarshalIPv4Into(&ip, b); err != nil {
		t.Fatalf("reply IP: %v", err)
	}
	var m pkt.ICMP
	if err := pkt.UnmarshalICMPInto(&m, ip.Payload); err != nil {
		t.Fatalf("reply ICMP: %v", err)
	}
	h := &hopReply{from: ip.Src, icmpType: m.Type, icmpCode: m.Code, replyTTL: ip.TTL}
	if s, ok := m.AppendMPLSStack(nil); ok {
		h.stack = s
	}
	return h
}

// chain is the canonical test topology:
//
//	vp -- GW(as 65000, plain IP) -- PE1 -- P1 -- P2 -- P3 -- PE2 -- target
//
// PE1..PE2 are in AS 100. PE1 is the ingress LER whose Mode decides the
// encapsulation; the target host hangs off PE2.
type chain struct {
	net     *Network
	vp      netip.Addr
	target  netip.Addr
	gw      *Router
	pe1     *Router
	ps      []*Router // P1..P3
	pe2     *Router
	pathLen int // IP hop count from vp gateway to target (routers only)
}

type chainOpt func(*chainCfg)

type chainCfg struct {
	mode         TunnelMode
	vendor       mpls.Vendor
	ttlPropagate bool
	rfc4950      bool
	sr, ldp      bool
	interior     int
}

func withMode(m TunnelMode) chainOpt    { return func(c *chainCfg) { c.mode = m } }
func withPropagate(v bool) chainOpt     { return func(c *chainCfg) { c.ttlPropagate = v } }
func withRFC4950(v bool) chainOpt       { return func(c *chainCfg) { c.rfc4950 = v } }
func withVendor(v mpls.Vendor) chainOpt { return func(c *chainCfg) { c.vendor = v } }
func withPlanes(sr, ldp bool) chainOpt  { return func(c *chainCfg) { c.sr, c.ldp = sr, ldp } }
func withInterior(n int) chainOpt       { return func(c *chainCfg) { c.interior = n } }

func buildChain(t *testing.T, opts ...chainOpt) *chain {
	t.Helper()
	cfg := chainCfg{mode: ModeSR, vendor: mpls.VendorCisco, ttlPropagate: true, rfc4950: true, sr: true, ldp: false, interior: 3}
	for _, o := range opts {
		o(&cfg)
	}
	n := New(42)
	prof := DefaultProfile(cfg.vendor)
	prof.TTLPropagate = cfg.ttlPropagate
	prof.RFC4950 = cfg.rfc4950

	gw := n.AddRouter(RouterConfig{Name: "gw", ASN: 65000, Vendor: mpls.VendorLinux,
		Profile: DefaultProfile(mpls.VendorLinux), Mode: ModeIP})

	mk := func(name string) *Router {
		return n.AddRouter(RouterConfig{Name: name, ASN: 100, Vendor: cfg.vendor,
			Profile: prof, SREnabled: cfg.sr, LDPEnabled: cfg.ldp, Mode: cfg.mode})
	}
	pe1 := mk("pe1")
	var ps []*Router
	prevR := pe1
	n.Connect(gw.ID, pe1.ID, 10)
	for i := 0; i < cfg.interior; i++ {
		p := mk("p" + string(rune('1'+i)))
		n.Connect(prevR.ID, p.ID, 10)
		prevR = p
		ps = append(ps, p)
	}
	pe2 := mk("pe2")
	n.Connect(prevR.ID, pe2.ID, 10)

	vp := a("172.16.0.10")
	target := a("100.1.0.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(target, pe2.ID)
	n.Compute()
	return &chain{net: n, vp: vp, target: target, gw: gw, pe1: pe1, ps: ps, pe2: pe2,
		pathLen: cfg.interior + 3}
}

// traceUDP runs a raw TTL sweep and returns one parsed reply per TTL.
func (c *chain) traceUDP(t *testing.T, dst netip.Addr, maxTTL int, dport uint16) []*hopReply {
	t.Helper()
	var hops []*hopReply
	for ttl := 1; ttl <= maxTTL; ttl++ {
		d, err := c.net.Send(c.vp, udpProbe(c.vp, dst, uint8(ttl), dport), nil)
		if err != nil {
			t.Fatalf("send ttl=%d: %v", ttl, err)
		}
		h := parseReply(t, d.Reply)
		hops = append(hops, h)
		if h != nil && h.icmpType == pkt.ICMPDestUnreachable {
			break
		}
	}
	return hops
}

func TestIGPShortestPaths(t *testing.T) {
	c := buildChain(t)
	if d := c.net.Dist(c.gw.ID, c.pe2.ID); d != 50 {
		t.Errorf("gw->pe2 cost = %d, want 50", d)
	}
	if l := c.net.PathLen(c.gw.ID, c.pe2.ID, 1); l != 5 {
		t.Errorf("gw->pe2 hops = %d, want 5", l)
	}
	if l := c.net.PathLen(c.pe1.ID, c.pe1.ID, 1); l != 0 {
		t.Errorf("self path = %d", l)
	}
}

func TestECMPFlowStability(t *testing.T) {
	// Diamond: s - (a|b) - d. Same flow must always take the same branch.
	n := New(7)
	s := n.AddRouter(RouterConfig{ASN: 1, Vendor: mpls.VendorCisco, Profile: DefaultProfile(mpls.VendorCisco)})
	ra := n.AddRouter(RouterConfig{ASN: 1, Vendor: mpls.VendorCisco, Profile: DefaultProfile(mpls.VendorCisco)})
	rb := n.AddRouter(RouterConfig{ASN: 1, Vendor: mpls.VendorCisco, Profile: DefaultProfile(mpls.VendorCisco)})
	d := n.AddRouter(RouterConfig{ASN: 1, Vendor: mpls.VendorCisco, Profile: DefaultProfile(mpls.VendorCisco)})
	n.Connect(s.ID, ra.ID, 10)
	n.Connect(s.ID, rb.ID, 10)
	n.Connect(ra.ID, d.ID, 10)
	n.Connect(rb.ID, d.ID, 10)
	n.Compute()

	nh1, ok := n.NextHop(s.ID, d.ID, 12345)
	if !ok {
		t.Fatal("no next hop")
	}
	for i := 0; i < 10; i++ {
		nh, _ := n.NextHop(s.ID, d.ID, 12345)
		if nh != nh1 {
			t.Fatal("same flow took different branches")
		}
	}
	// Different flows should eventually use both branches.
	seen := map[RouterID]bool{}
	for f := uint64(0); f < 64; f++ {
		nh, _ := n.NextHop(s.ID, d.ID, f)
		seen[nh] = true
	}
	if len(seen) != 2 {
		t.Errorf("ECMP used %d branches, want 2", len(seen))
	}
}

func TestPlainIPTraceroute(t *testing.T) {
	c := buildChain(t, withMode(ModeIP), withPlanes(false, false))
	hops := c.traceUDP(t, c.target, 10, 33434)
	// gw, pe1, p1..p3, pe2, then the host.
	if len(hops) != c.pathLen+1 {
		t.Fatalf("got %d hops, want %d", len(hops), c.pathLen+1)
	}
	for i, h := range hops[:c.pathLen] {
		if h == nil {
			t.Fatalf("hop %d: no reply", i+1)
		}
		if h.icmpType != pkt.ICMPTimeExceeded {
			t.Errorf("hop %d: type %d", i+1, h.icmpType)
		}
		if h.stack != nil {
			t.Errorf("hop %d: unexpected MPLS stack %v", i+1, h.stack)
		}
	}
	last := hops[c.pathLen]
	if last.icmpType != pkt.ICMPDestUnreachable || last.icmpCode != pkt.CodePortUnreachable {
		t.Errorf("last hop: %d/%d", last.icmpType, last.icmpCode)
	}
	if last.from != c.target {
		t.Errorf("last hop from %s, want %s", last.from, c.target)
	}
}

func TestHopSourceIsIncomingInterface(t *testing.T) {
	c := buildChain(t, withMode(ModeIP), withPlanes(false, false))
	hops := c.traceUDP(t, c.target, 10, 33434)
	// Hop 2 is pe1; its reply must come from pe1's interface facing gw.
	want, _ := c.pe1.InterfaceTo(c.gw.ID)
	if hops[1].from != want {
		t.Errorf("pe1 replied from %s, want %s", hops[1].from, want)
	}
}

func TestExplicitSRTunnelConsecutiveLabels(t *testing.T) {
	c := buildChain(t) // SR, propagate, RFC4950 => explicit tunnel
	hops := c.traceUDP(t, c.target, 10, 33434)
	if len(hops) != c.pathLen+1 {
		t.Fatalf("got %d hops, want %d", len(hops), c.pathLen+1)
	}
	// PE1 pushes; P1..P3 and PE2 carry the node SID of PE2. With a shared
	// SRGB the same label must appear at every labeled hop.
	wantLabel := c.pe1.SRGB.Lo + uint32(c.pe2.NodeIndex())
	if hops[1].stack != nil {
		t.Errorf("ingress PE1 should not be labeled, got %v", hops[1].stack)
	}
	labeled := hops[2 : 2+len(c.ps)+1] // p1..p3, pe2
	for i, h := range labeled {
		if h.stack == nil {
			t.Fatalf("labeled hop %d: no stack", i)
		}
		if h.stack.Depth() != 1 {
			t.Errorf("labeled hop %d: depth %d", i, h.stack.Depth())
		}
		if h.stack[0].Label != wantLabel {
			t.Errorf("labeled hop %d: label %d, want %d", i, h.stack[0].Label, wantLabel)
		}
	}
	// The label must be in the Cisco SRGB (CVR precondition).
	if !mpls.CiscoSRGB.Contains(wantLabel) {
		t.Errorf("label %d outside Cisco SRGB", wantLabel)
	}
	// Quoted LSE TTL must be small (as received, near expiry).
	for i, h := range labeled {
		if h.stack[0].TTL != 1 {
			t.Errorf("labeled hop %d: quoted LSE TTL %d, want 1", i, h.stack[0].TTL)
		}
	}
}

func TestExplicitLDPTunnelDistinctLabels(t *testing.T) {
	c := buildChain(t, withMode(ModeLDP), withPlanes(false, true))
	hops := c.traceUDP(t, c.target, 10, 33434)
	if len(hops) != c.pathLen+1 {
		t.Fatalf("got %d hops, want %d", len(hops), c.pathLen+1)
	}
	// LDP with PHP: p1..p3 are labeled, pe2 receives unlabeled (implicit
	// null popped at p3).
	var labels []uint32
	for i, h := range hops[2 : 2+len(c.ps)] {
		if h.stack == nil {
			t.Fatalf("LSR hop %d: no stack", i)
		}
		labels = append(labels, h.stack[0].Label)
	}
	if hops[2+len(c.ps)].stack != nil {
		t.Errorf("PHP: pe2 should be unlabeled, got %v", hops[2+len(c.ps)].stack)
	}
	// Labels are locally significant: consecutive identical labels should
	// essentially never occur.
	for i := 1; i < len(labels); i++ {
		if labels[i] == labels[i-1] {
			t.Errorf("consecutive identical LDP labels %d at hops %d,%d", labels[i], i-1, i)
		}
	}
	// All labels from the Cisco dynamic pool, not the SRGB.
	for i, l := range labels {
		if !mpls.DynamicPool(mpls.VendorCisco).Contains(l) {
			t.Errorf("hop %d: label %d outside dynamic pool", i, l)
		}
	}
}

func TestOpaqueTunnel(t *testing.T) {
	// no ttl-propagate + RFC4950: interior hidden; the egress quotes one
	// LSE with a high TTL (255 - tunnel length + 1).
	c := buildChain(t, withPropagate(false))
	hops := c.traceUDP(t, c.target, 10, 33434)
	// Visible: gw, pe1, pe2(+quote), host. Interior p1..p3 hidden.
	if len(hops) != 4 {
		t.Fatalf("got %d visible hops, want 4 (interior hidden)", len(hops))
	}
	eh := hops[2]
	wantFrom, _ := c.pe2.InterfaceTo(c.ps[len(c.ps)-1].ID)
	if eh.from != wantFrom {
		t.Errorf("ending hop from %s, want %s (pe2)", eh.from, wantFrom)
	}
	if eh.stack == nil {
		t.Fatal("opaque ending hop must quote its LSE")
	}
	// LSE TTL started at 255 and was decremented by each upstream LSR
	// (p1..p3); the quote shows the stack as received: 255-3 = 252.
	if got := eh.stack[0].TTL; got != 252 {
		t.Errorf("opaque quoted LSE TTL = %d, want 252", got)
	}
}

func TestInvisibleTunnel(t *testing.T) {
	// no ttl-propagate + no RFC4950: interior hidden and no LSE anywhere.
	c := buildChain(t, withPropagate(false), withRFC4950(false))
	hops := c.traceUDP(t, c.target, 10, 33434)
	if len(hops) != 4 {
		t.Fatalf("got %d visible hops, want 4", len(hops))
	}
	for i, h := range hops {
		if h == nil {
			t.Fatalf("hop %d nil", i)
		}
		if h.stack != nil {
			t.Errorf("hop %d: stack %v in invisible tunnel", i, h.stack)
		}
	}
}

func TestImplicitTunnel(t *testing.T) {
	// ttl-propagate + no RFC4950: all hops visible, no LSEs quoted.
	c := buildChain(t, withRFC4950(false))
	hops := c.traceUDP(t, c.target, 10, 33434)
	if len(hops) != c.pathLen+1 {
		t.Fatalf("got %d hops, want %d", len(hops), c.pathLen+1)
	}
	for i, h := range hops {
		if h.stack != nil {
			t.Errorf("hop %d: stack %v in implicit tunnel", i, h.stack)
		}
	}
}

func TestInterfaceTargetsNotTunneled(t *testing.T) {
	// Probing an interface address must not be label-switched (FEC
	// granularity), which is what DPR/BRPR revelation exploits.
	c := buildChain(t, withPropagate(false)) // otherwise-opaque tunnel
	p2Iface, _ := c.ps[1].InterfaceTo(c.ps[0].ID)
	hops := c.traceUDP(t, p2Iface, 10, 33434)
	// gw, pe1, p1, then p2 answers the probe addressed to it.
	if len(hops) != 4 {
		t.Fatalf("got %d hops, want 4", len(hops))
	}
	if hops[2] == nil || hops[2].icmpType != pkt.ICMPTimeExceeded {
		t.Fatalf("p1 not revealed: %+v", hops[2])
	}
	if hops[2].stack != nil {
		t.Errorf("interface-target probe was labeled: %v", hops[2].stack)
	}
	last := hops[3]
	if last.icmpType != pkt.ICMPDestUnreachable || last.from != p2Iface {
		t.Errorf("target reply: type=%d from=%s", last.icmpType, last.from)
	}
}

func TestLoopbackTargetTunneled(t *testing.T) {
	c := buildChain(t)
	hops := c.traceUDP(t, c.pe2.Loopback, 10, 33434)
	// Loopbacks are FECs: probes toward pe2's loopback ride the LSP.
	if hops[2].stack == nil {
		t.Error("probe to loopback FEC was not tunneled")
	}
	last := hops[len(hops)-1]
	if last.icmpType != pkt.ICMPDestUnreachable || last.from != c.pe2.Loopback {
		t.Errorf("loopback delivery: type=%d from=%s", last.icmpType, last.from)
	}
}

func TestEchoReplyAndInitialTTLs(t *testing.T) {
	c := buildChain(t)
	// Ping p2's interface: Cisco signature is <echo 255, time-exc 255>.
	p2Iface, _ := c.ps[1].InterfaceTo(c.ps[0].ID)
	d, err := c.net.Send(c.vp, echoProbe(c.vp, p2Iface, 64, 77), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := parseReply(t, d.Reply)
	if h == nil || h.icmpType != pkt.ICMPEchoReply {
		t.Fatalf("no echo reply: %+v", h)
	}
	// Return distance gw->p2 is 3 routers + 1 host hop = 4: 255-4 = 251.
	if h.replyTTL != 251 {
		t.Errorf("echo reply TTL = %d, want 251", h.replyTTL)
	}
	if h.from != p2Iface {
		t.Errorf("echo reply from %s", h.from)
	}
}

func TestRespondsEchoFalse(t *testing.T) {
	c := buildChain(t)
	c.ps[1].Profile.RespondsEcho = false
	p2Iface, _ := c.ps[1].InterfaceTo(c.ps[0].ID)
	d, err := c.net.Send(c.vp, echoProbe(c.vp, p2Iface, 64, 78), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reply != nil {
		t.Error("router with RespondsEcho=false replied to ping")
	}
}

func TestSilentRouter(t *testing.T) {
	c := buildChain(t)
	c.ps[0].Profile.RespondsICMP = false
	hops := c.traceUDP(t, c.target, 10, 33434)
	if hops[2] != nil {
		t.Errorf("silent router replied: %+v", hops[2])
	}
	if hops[3] == nil {
		t.Error("hop after silent router missing")
	}
}

func TestSRPolicyMultiLabelStack(t *testing.T) {
	c := buildChain(t)
	// Steer through p2 explicitly: [nodeSID(p2), nodeSID(pe2)].
	p2, pe2 := c.ps[1].ID, c.pe2.ID
	c.net.SRPolicy = func(ing *Router, egress RouterID, dst netip.Addr, flow uint64) SegmentList {
		if egress == pe2 {
			return SegmentList{{Node: p2}, {Node: pe2}}
		}
		return nil
	}
	hops := c.traceUDP(t, c.target, 10, 33434)
	// p1 sees depth-2 stack [sid(p2), sid(pe2)].
	h := hops[2]
	if h.stack.Depth() != 2 {
		t.Fatalf("p1 stack depth = %d, want 2: %v", h.stack.Depth(), h.stack)
	}
	wantTop := c.ps[0].SRGB.Lo + uint32(c.ps[1].NodeIndex())
	if h.stack[0].Label != wantTop {
		t.Errorf("p1 top label = %d, want %d", h.stack[0].Label, wantTop)
	}
	// After p2 pops its own SID, p3 sees depth-1 [sid(pe2)].
	h3 := hops[4]
	if h3.stack.Depth() != 1 {
		t.Fatalf("p3 stack depth = %d: %v", h3.stack.Depth(), h3.stack)
	}
	wantInner := c.ps[2].SRGB.Lo + uint32(c.pe2.NodeIndex())
	if h3.stack[0].Label != wantInner {
		t.Errorf("p3 label = %d, want %d", h3.stack[0].Label, wantInner)
	}
	// Path length unchanged (p2 was already on the shortest path).
	if len(hops) != c.pathLen+1 {
		t.Errorf("hops = %d, want %d", len(hops), c.pathLen+1)
	}
}

func TestAdjacencySIDSteering(t *testing.T) {
	// Square topology: s-a-d and s-b-d, with a-d expensive so shortest is
	// via b. An adjacency SID on a->d forces the expensive link.
	n := New(3)
	mk := func(name string) *Router {
		return n.AddRouter(RouterConfig{Name: name, ASN: 1, Vendor: mpls.VendorCisco,
			Profile: DefaultProfile(mpls.VendorCisco), SREnabled: true, Mode: ModeSR})
	}
	s, ra, rb, d := mk("s"), mk("a"), mk("b"), mk("d")
	n.Connect(s.ID, ra.ID, 10)
	n.Connect(s.ID, rb.ID, 10)
	n.Connect(ra.ID, d.ID, 100)
	n.Connect(rb.ID, d.ID, 10)
	vp := a("172.16.0.1")
	tgt := a("100.1.0.99")
	n.AddHost(vp, s.ID)
	n.AddHost(tgt, d.ID)
	n.SRPolicy = func(ing *Router, egress RouterID, dst netip.Addr, flow uint64) SegmentList {
		return SegmentList{{Node: ra.ID}, {From: ra.ID, To: d.ID, Adj: true}, {Node: d.ID}}
	}
	n.Compute()

	var path []RouterID
	if _, err := n.send(vp, udpProbe(vp, tgt, 32, 33434), nil, &path); err != nil {
		t.Fatal(err)
	}
	// Path must go s -> a -> d, not via b.
	want := []RouterID{s.ID, ra.ID, d.ID}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Adjacency SID came from the Cisco SRLB.
	sid, ok := ra.AdjacencySID(d.ID)
	if !ok || !mpls.CiscoSRLB.Contains(sid) {
		t.Errorf("adjacency SID %d (ok=%v) not in Cisco SRLB", sid, ok)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint32 {
		c := buildChain(t, withMode(ModeLDP), withPlanes(false, true))
		hops := c.traceUDP(t, c.target, 10, 33434)
		var out []uint32
		for _, h := range hops {
			if h != nil && h.stack != nil {
				out = append(out, h.stack[0].Label)
			}
		}
		return out
	}
	a1, a2 := run(), run()
	if len(a1) != len(a2) || len(a1) == 0 {
		t.Fatalf("label runs differ in length: %v vs %v", a1, a2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("run diverged at %d: %d vs %d", i, a1[i], a2[i])
		}
	}
}

func TestUnroutedDestination(t *testing.T) {
	c := buildChain(t)
	d, err := c.net.Send(c.vp, udpProbe(c.vp, a("203.0.113.99"), 12, 33434), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reply != nil {
		t.Error("unrouted destination produced a reply")
	}
}

func TestSendErrors(t *testing.T) {
	c := buildChain(t)
	for _, src := range []netip.Addr{a("9.9.9.9"), c.pe1.Loopback} { // no address; a router's, no host's
		if _, err := c.net.Send(src, udpProbe(src, c.target, 3, 33434), nil); !errors.Is(err, ErrUnknownHost) {
			t.Errorf("Send from %v: err = %v, want ErrUnknownHost", src, err)
		}
	}
	if _, err := c.net.Send(c.vp, []byte{1, 2, 3}, nil); err == nil {
		t.Error("garbage probe accepted")
	}
	fresh := New(1)
	r := fresh.AddRouter(RouterConfig{ASN: 1, Vendor: mpls.VendorCisco, Profile: DefaultProfile(mpls.VendorCisco)})
	fresh.AddHost(a("172.16.5.5"), r.ID)
	if _, err := fresh.Send(a("172.16.5.5"), udpProbe(a("172.16.5.5"), a("10.1.0.1"), 3, 33434), nil); err != ErrNotComputed {
		t.Errorf("err = %v, want ErrNotComputed", err)
	}
}

// Hosts and advertised prefixes join forwarding at the next Compute, as
// routers, links and link states do: until then Send refuses with
// ErrNotComputed, so every topology change reaches forwarding the same
// way, whether or not Compute rebuilds the state it touched.
func TestAdvertiseAfterComputeNeedsCompute(t *testing.T) {
	c := buildChain(t)
	dst := a("100.2.17.9")
	c.net.AdvertisePrefix(c.pe2.ID, netip.MustParsePrefix("100.2.16.0/20"))
	if _, err := c.net.Send(c.vp, udpProbe(c.vp, dst, 32, 33434), nil); err != ErrNotComputed {
		t.Fatalf("Send into a /20 advertised after Compute: err = %v, want ErrNotComputed", err)
	}
	c.net.Compute()
	d, err := c.net.Send(c.vp, udpProbe(c.vp, dst, 32, 33434), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h := parseReply(t, d.Reply); h == nil || h.icmpType != pkt.ICMPDestUnreachable || h.from != c.pe2.Loopback {
		t.Fatalf("reply from the /20 = %+v, want port unreachable from pe2's loopback %v", h, c.pe2.Loopback)
	}

	host := a("100.2.17.10")
	c.net.AddHost(host, c.pe2.ID)
	if _, err := c.net.Send(c.vp, udpProbe(c.vp, host, 32, 33434), nil); err != ErrNotComputed {
		t.Fatalf("Send to a host added after Compute: err = %v, want ErrNotComputed", err)
	}
	c.net.Compute()
	d, err = c.net.Send(c.vp, udpProbe(c.vp, host, 32, 33434), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h := parseReply(t, d.Reply); h == nil || h.icmpType != pkt.ICMPDestUnreachable || h.from != host {
		t.Fatalf("reply from the new host = %+v, want port unreachable from %v", h, host)
	}
}

func TestIPIDMonotone(t *testing.T) {
	c := buildChain(t)
	p2Iface, _ := c.ps[1].InterfaceTo(c.ps[0].ID)
	var ids []uint16
	for i := 0; i < 5; i++ {
		d, err := c.net.Send(c.vp, udpProbe(c.vp, p2Iface, 32, uint16(33434+i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		var ip pkt.IPv4
		if err := pkt.UnmarshalIPv4Into(&ip, d.Reply); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ip.ID)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Errorf("IP-ID did not advance: %v", ids)
		}
	}
}

func TestServiceSIDUnshrinkingStack(t *testing.T) {
	c := buildChain(t)
	svc := c.net.AllocateServiceSID(c.pe2)
	pe2 := c.pe2.ID
	c.net.SRPolicy = func(ing *Router, egress RouterID, dst netip.Addr, flow uint64) SegmentList {
		if egress == pe2 {
			return SegmentList{{Node: pe2}, {Service: true, ServiceLabel: svc}}
		}
		return nil
	}
	hops := c.traceUDP(t, c.target, 10, 33434)
	if len(hops) != c.pathLen+1 {
		t.Fatalf("hops = %d, want %d", len(hops), c.pathLen+1)
	}
	// Every labeled hop, including the last LSR, must show depth 2: the
	// transport SID on top and the service SID at the bottom (the
	// "unshrinking stack" signature).
	for i := 2; i < 2+len(c.ps)+1; i++ {
		h := hops[i]
		if h.stack.Depth() != 2 {
			t.Fatalf("hop %d stack depth = %d, want 2: %v", i, h.stack.Depth(), h.stack)
		}
		if h.stack[1].Label != svc {
			t.Errorf("hop %d bottom label = %d, want service SID %d", i, h.stack[1].Label, svc)
		}
	}
	// The packet is still delivered: pe2 pops both labels.
	last := hops[len(hops)-1]
	if last.icmpType != pkt.ICMPDestUnreachable {
		t.Errorf("not delivered: %+v", last)
	}
}

func TestCustomSRGBUsedOnWire(t *testing.T) {
	n := New(42)
	custom := mpls.LabelRange{Lo: 400000, Hi: 407999}
	prof := DefaultProfile(mpls.VendorCisco)
	gw := n.AddRouter(RouterConfig{Name: "gw", ASN: 65000, Vendor: mpls.VendorLinux,
		Profile: DefaultProfile(mpls.VendorLinux), Mode: ModeIP})
	mk := func(name string) *Router {
		return n.AddRouter(RouterConfig{Name: name, ASN: 100, Vendor: mpls.VendorCisco,
			Profile: prof, SREnabled: true, Mode: ModeSR, SRGB: custom})
	}
	pe1, p1, pe2 := mk("pe1"), mk("p1"), mk("pe2")
	n.Connect(gw.ID, pe1.ID, 10)
	n.Connect(pe1.ID, p1.ID, 10)
	n.Connect(p1.ID, pe2.ID, 10)
	vp := a("172.16.0.10")
	target := a("100.1.0.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(target, pe2.ID)
	n.Compute()
	c := &chain{net: n, vp: vp, target: target, gw: gw, pe1: pe1, ps: []*Router{p1}, pe2: pe2}

	hops := c.traceUDP(t, c.target, 10, 33434)
	labeled := 0
	for _, h := range hops {
		if h != nil && h.stack != nil {
			labeled++
			if !custom.Contains(h.stack[0].Label) {
				t.Errorf("label %d outside custom SRGB %v", h.stack[0].Label, custom)
			}
			if mpls.CiscoSRGB.Contains(h.stack[0].Label) {
				t.Errorf("label %d still in the vendor default range", h.stack[0].Label)
			}
		}
	}
	if labeled == 0 {
		t.Fatal("no labels observed")
	}
}

func TestJuniperAdjacencySIDsFromDynamicPool(t *testing.T) {
	n := New(42)
	prof := DefaultProfile(mpls.VendorJuniper)
	r1 := n.AddRouter(RouterConfig{ASN: 1, Vendor: mpls.VendorJuniper, Profile: prof, SREnabled: true, Mode: ModeSR})
	r2 := n.AddRouter(RouterConfig{ASN: 1, Vendor: mpls.VendorJuniper, Profile: prof, SREnabled: true, Mode: ModeSR})
	n.Connect(r1.ID, r2.ID, 10)
	n.Compute()
	sid, ok := r1.AdjacencySID(r2.ID)
	if !ok {
		t.Fatal("no adjacency SID")
	}
	// Juniper has no SRLB: the SID must come from the dynamic pool.
	if !mpls.DynamicPool(mpls.VendorJuniper).Contains(sid) {
		t.Errorf("adjacency SID %d outside the Juniper dynamic pool", sid)
	}
}

func TestUniformTunnelPreservesHopCount(t *testing.T) {
	// Property: with ttl-propagate (uniform model) the traceroute hop count
	// to the destination is identical whether the domain runs IP, LDP, or
	// SR — tunnels are TTL-transparent.
	counts := map[string]int{}
	for _, m := range []struct {
		name string
		mode TunnelMode
		sr   bool
		ldp  bool
	}{
		{"ip", ModeIP, false, false},
		{"ldp", ModeLDP, false, true},
		{"sr", ModeSR, true, false},
	} {
		c := buildChain(t, withMode(m.mode), withPlanes(m.sr, m.ldp))
		hops := c.traceUDP(t, c.target, 12, 33434)
		counts[m.name] = len(hops)
	}
	if counts["ip"] != counts["ldp"] || counts["ip"] != counts["sr"] {
		t.Errorf("hop counts differ across modes: %v", counts)
	}
}

func TestPipeTunnelShortensPath(t *testing.T) {
	// Property: the pipe model hides exactly the tunnel interior.
	uni := buildChain(t)
	pipe := buildChain(t, withPropagate(false))
	uniHops := uni.traceUDP(t, uni.target, 12, 33434)
	pipeHops := pipe.traceUDP(t, pipe.target, 12, 33434)
	if want := len(uniHops) - len(uni.ps); len(pipeHops) != want {
		t.Errorf("pipe hops = %d, want %d", len(pipeHops), want)
	}
}

func TestICMPLossAndRetries(t *testing.T) {
	c := buildChain(t, withMode(ModeIP), withPlanes(false, false))
	// Heavy but not total loss on p2.
	c.ps[1].Profile.ICMPLossProb = 0.6
	// Deterministic: the same probe is lost (or not) every time.
	probe := udpProbe(c.vp, c.target, 4, 33434)
	d1, err := c.net.Send(c.vp, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.net.Send(c.vp, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	if (d1.Reply == nil) != (d2.Reply == nil) {
		t.Error("loss is not deterministic per probe")
	}
	// Across many distinct probes, some are lost and some survive.
	lost, got := 0, 0
	for i := 0; i < 40; i++ {
		u := &pkt.UDP{SrcPort: 33434, DstPort: uint16(33434 + i), Payload: []byte("probe")}
		ub, _ := u.AppendMarshal(nil, c.vp, c.target)
		ip := &pkt.IPv4{TTL: 4, Protocol: pkt.ProtoUDP, ID: uint16(i * 17), Src: c.vp, Dst: c.target, Payload: ub}
		w, _ := ip.AppendMarshal(nil)
		d, err := c.net.Send(c.vp, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.Reply == nil {
			lost++
		} else {
			got++
		}
	}
	if lost == 0 || got == 0 {
		t.Errorf("loss model degenerate: lost=%d got=%d", lost, got)
	}
}

func TestOwnerCacheConsistency(t *testing.T) {
	// The owner must follow a re-advertisement: advertise the target
	// host's address as a /32 behind a different router and re-resolve.
	c := buildChain(t)
	dst := c.target
	if id := c.net.resolve(dst).owner; id != c.pe2.ID {
		t.Fatalf("owner = %v, want %v", id, c.pe2.ID)
	}
	other := c.ps[0]
	c.net.AdvertisePrefix(other.ID, netip.PrefixFrom(dst, 32))
	c.net.Compute()
	if id := c.net.resolve(dst).owner; id != other.ID {
		t.Errorf("stale owner after Compute: got %v want %v", id, other.ID)
	}
}

func TestTunnelEligible(t *testing.T) {
	c := buildChain(t)
	if !c.net.resolve(c.target).eligible {
		t.Error("host target should be tunnel-eligible")
	}
	if !c.net.resolve(c.pe2.Loopback).eligible {
		t.Error("loopback should be tunnel-eligible")
	}
	iface, _ := c.ps[0].InterfaceTo(c.pe1.ID)
	if c.net.resolve(iface).eligible {
		t.Error("interface address should not be tunnel-eligible")
	}
}
