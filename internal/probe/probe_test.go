package probe

import (
	"context"
	"encoding/json"
	"net/netip"
	"slices"
	"testing"

	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/pkt"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// testNet builds the canonical chain:
//
//	vp -- gw -- pe1 -- p1 -- p2 -- p3 -- pe2 -- target
//
// with the MPLS region pe1..pe2 configured by the arguments.
type testNet struct {
	net        *netsim.Network
	vp, target netip.Addr
	gw         *netsim.Router
	pe1, pe2   *netsim.Router
	ps         []*netsim.Router
}

func build(t *testing.T, mode netsim.TunnelMode, propagate, rfc4950 bool) *testNet {
	t.Helper()
	return buildNet(mode, propagate, rfc4950)
}

// buildNet is the testing.TB-free core of build, shared with benchmarks.
func buildNet(mode netsim.TunnelMode, propagate, rfc4950 bool) *testNet {
	n := netsim.New(21)
	prof := netsim.DefaultProfile(mpls.VendorCisco)
	prof.TTLPropagate = propagate
	prof.RFC4950 = rfc4950
	gw := n.AddRouter(netsim.RouterConfig{Name: "gw", ASN: 65000, Vendor: mpls.VendorLinux,
		Profile: netsim.DefaultProfile(mpls.VendorLinux), Mode: netsim.ModeIP})
	mk := func(name string) *netsim.Router {
		return n.AddRouter(netsim.RouterConfig{Name: name, ASN: 100, Vendor: mpls.VendorCisco,
			Profile: prof, SREnabled: mode == netsim.ModeSR, LDPEnabled: mode == netsim.ModeLDP, Mode: mode})
	}
	pe1 := mk("pe1")
	n.Connect(gw.ID, pe1.ID, 10)
	prev := pe1
	var ps []*netsim.Router
	for i := 0; i < 3; i++ {
		p := mk("p")
		n.Connect(prev.ID, p.ID, 10)
		ps = append(ps, p)
		prev = p
	}
	pe2 := mk("pe2")
	n.Connect(prev.ID, pe2.ID, 10)
	vp := a("172.16.0.10")
	target := a("100.1.0.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(target, pe2.ID)
	n.Compute()
	return &testNet{net: n, vp: vp, target: target, gw: gw, pe1: pe1, pe2: pe2, ps: ps}
}

func (tn *testNet) tracer() *Tracer {
	return NewTracer(NetsimConn{tn.net}, tn.vp)
}

func TestTraceReachesDestination(t *testing.T) {
	tn := build(t, netsim.ModeIP, true, true)
	tr, err := tn.tracer().Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Reached() {
		t.Fatalf("halt = %v", tr.Halt)
	}
	if len(tr.Hops) != 7 {
		t.Fatalf("hops = %d, want 7\n%s", len(tr.Hops), tr)
	}
	last := tr.Hops[len(tr.Hops)-1]
	if last.Addr != tn.target || last.ICMPType != pkt.ICMPDestUnreachable {
		t.Errorf("last hop %+v", last)
	}
	for i, h := range tr.Hops[:6] {
		if h.ICMPType != pkt.ICMPTimeExceeded {
			t.Errorf("hop %d type %d", i, h.ICMPType)
		}
		if h.RTT <= 0 {
			t.Errorf("hop %d rtt %f", i, h.RTT)
		}
	}
	// RTTs should not decrease along the path.
	for i := 1; i < 6; i++ {
		if tr.Hops[i].RTT < tr.Hops[i-1].RTT {
			t.Errorf("RTT decreased at hop %d", i)
		}
	}
}

func TestTraceExplicitSRStacks(t *testing.T) {
	tn := build(t, netsim.ModeSR, true, true)
	tr, err := tn.tracer().Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	var labels []uint32
	for _, h := range tr.Hops {
		if h.HasStack() {
			labels = append(labels, h.Stack[0].Label)
		}
	}
	if len(labels) != 4 { // p1,p2,p3,pe2
		t.Fatalf("labeled hops = %d, want 4\n%s", len(labels), tr)
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] != labels[0] {
			t.Errorf("labels not consecutive-identical: %v", labels)
		}
	}
	tuns := ClassifyTunnels(tr)
	if len(tuns) != 1 || tuns[0].Type != TunnelExplicit {
		t.Fatalf("tunnels = %+v", tuns)
	}
	if !HasExplicitTunnel(tr) {
		t.Error("HasExplicitTunnel = false")
	}
}

func TestTraceImplicitTunnelQTTL(t *testing.T) {
	tn := build(t, netsim.ModeSR, true, false) // propagate, no RFC4950
	tr, err := tn.tracer().Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No stacks anywhere.
	for i, h := range tr.Hops {
		if h.HasStack() {
			t.Errorf("hop %d has stack", i)
		}
	}
	// qTTL staircase on the tunnel interior.
	tuns := ClassifyTunnels(tr)
	if len(tuns) != 1 || tuns[0].Type != TunnelImplicit {
		t.Fatalf("tunnels = %+v\n%s", tuns, tr)
	}
	if got := tuns[0].End - tuns[0].Start + 1; got != 4 {
		t.Errorf("implicit tunnel length = %d, want 4", got)
	}
}

func TestTraceOpaqueRevelation(t *testing.T) {
	tn := build(t, netsim.ModeSR, false, true) // pipe + RFC4950 = opaque
	tr, err := tn.tracer().Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With revelation, the hidden interior (p1..p3) must be spliced in.
	var revealed []Hop
	for _, h := range tr.Hops {
		if h.Revealed {
			revealed = append(revealed, h)
		}
	}
	if len(revealed) != 3 {
		t.Fatalf("revealed hops = %d, want 3\n%s", len(revealed), tr)
	}
	for _, h := range revealed {
		if h.HasStack() {
			t.Error("revealed hop carries an LSE; DPR cannot observe those")
		}
	}
	tuns := ClassifyTunnels(tr)
	if len(tuns) != 1 || tuns[0].Type != TunnelOpaque {
		t.Fatalf("tunnels = %+v", tuns)
	}
	if tuns[0].HiddenLen != 3 {
		t.Errorf("hidden length = %d, want 3", tuns[0].HiddenLen)
	}
}

func TestTraceOpaqueWithoutRevelation(t *testing.T) {
	tn := build(t, netsim.ModeSR, false, true)
	tc := tn.tracer()
	tc.Reveal = false
	tr, err := tc.Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Hops) != 4 { // gw, pe1, pe2(LSE), target
		t.Fatalf("hops = %d, want 4\n%s", len(tr.Hops), tr)
	}
	tuns := ClassifyTunnels(tr)
	if len(tuns) != 1 || tuns[0].Type != TunnelOpaque {
		t.Fatalf("tunnels = %+v", tuns)
	}
	if tuns[0].HiddenLen != 3 {
		t.Errorf("hidden = %d, want 3", tuns[0].HiddenLen)
	}
}

func TestTraceInvisibleRevelation(t *testing.T) {
	tn := build(t, netsim.ModeSR, false, false) // pipe + no RFC4950 = invisible
	tr, err := tn.tracer().Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	var revealed int
	for _, h := range tr.Hops {
		if h.Revealed {
			revealed++
		}
		if h.HasStack() {
			t.Error("LSE present in invisible tunnel")
		}
	}
	if revealed != 3 {
		t.Fatalf("revealed = %d, want 3\n%s", revealed, tr)
	}
	tuns := ClassifyTunnels(tr)
	if len(tuns) != 1 || tuns[0].Type != TunnelInvisible {
		t.Fatalf("tunnels = %+v", tuns)
	}
}

func TestTraceInvisibleWithoutRevelationRTLA(t *testing.T) {
	tn := build(t, netsim.ModeSR, false, false)
	tc := tn.tracer()
	tc.Reveal = false
	tr, err := tc.Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	tuns := ClassifyTunnels(tr)
	if len(tuns) != 1 || tuns[0].Type != TunnelInvisible {
		t.Fatalf("tunnels = %+v\n%s", tuns, tr)
	}
	if tuns[0].HiddenLen != 3 {
		t.Errorf("RTLA hidden estimate = %d, want 3", tuns[0].HiddenLen)
	}
}

func TestParisFlowStability(t *testing.T) {
	// Diamond with ECMP inside the AS: the same flow must see one path.
	n := netsim.New(5)
	prof := netsim.DefaultProfile(mpls.VendorCisco)
	mk := func(name string) *netsim.Router {
		return n.AddRouter(netsim.RouterConfig{Name: name, ASN: 100, Vendor: mpls.VendorCisco,
			Profile: prof, Mode: netsim.ModeIP})
	}
	gw, s, x, y, d := mk("gw"), mk("s"), mk("x"), mk("y"), mk("d")
	n.Connect(gw.ID, s.ID, 10)
	n.Connect(s.ID, x.ID, 10)
	n.Connect(s.ID, y.ID, 10)
	n.Connect(x.ID, d.ID, 10)
	n.Connect(y.ID, d.ID, 10)
	vp := a("172.16.0.1")
	tgt := a("100.1.0.50")
	n.AddHost(vp, gw.ID)
	n.AddHost(tgt, d.ID)
	n.Compute()
	tc := NewTracer(NetsimConn{n}, vp)

	tr1, err := tc.Trace(context.Background(), tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := tc.Trace(context.Background(), tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := tr1.Addrs(), tr2.Addrs()
	if len(a1) != len(a2) {
		t.Fatalf("path lengths differ")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("same flow, different path at hop %d: %s vs %s", i, a1[i], a2[i])
		}
	}
	// Different flows should be able to take the other branch.
	diverged := false
	for f := uint16(1); f < 32 && !diverged; f++ {
		trf, err := tc.Trace(context.Background(), tgt, f)
		if err != nil {
			t.Fatal(err)
		}
		af := trf.Addrs()
		for i := range af {
			if i < len(a1) && af[i] != a1[i] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("no flow diverged across 31 flow IDs despite ECMP")
	}
}

func TestPing(t *testing.T) {
	tn := build(t, netsim.ModeSR, true, true)
	tc := tn.tracer()
	p2 := tn.ps[1]
	iface, _ := p2.InterfaceTo(tn.ps[0].ID)
	ttl, ok, err := tc.Ping(context.Background(), iface, 42)
	if err != nil || !ok {
		t.Fatalf("ping failed: ok=%v err=%v", ok, err)
	}
	if InferInitialTTL(ttl) != 255 {
		t.Errorf("inferred initial TTL %d from %d, want 255", InferInitialTTL(ttl), ttl)
	}
	if _, ok, err := tc.Ping(context.Background(), a("203.0.113.1"), 43); ok {
		t.Errorf("ping to unrouted address succeeded (err=%v)", err)
	}
}

func TestInferInitialTTL(t *testing.T) {
	cases := []struct {
		in, want uint8
	}{{1, 32}, {32, 32}, {33, 64}, {60, 64}, {64, 64}, {65, 128}, {128, 128}, {129, 255}, {250, 255}, {255, 255}}
	for _, c := range cases {
		if got := InferInitialTTL(c.in); got != c.want {
			t.Errorf("InferInitialTTL(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestTraceGapHalt(t *testing.T) {
	tn := build(t, netsim.ModeIP, true, true)
	// Silence everything after pe1.
	for _, p := range tn.ps {
		p.Profile.RespondsICMP = false
	}
	tn.pe2.Profile.RespondsICMP = false
	tc := tn.tracer()
	tc.MaxGaps = 3
	// Target the last interior router's address so the destination itself
	// never answers either.
	dst := tn.ps[2].Loopback
	tr, err := tc.Trace(context.Background(), dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Halt != HaltGaps {
		t.Errorf("halt = %v, want gaps\n%s", tr.Halt, tr)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tn := build(t, netsim.ModeSR, true, true)
	tr, err := tn.tracer().Trace(context.Background(), tn.target, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.VP != tr.VP || back.Dst != tr.Dst || len(back.Hops) != len(tr.Hops) || back.FlowID != 3 {
		t.Errorf("round trip mismatch")
	}
	for i := range back.Hops {
		if !slices.Equal(back.Hops[i].Stack, tr.Hops[i].Stack) {
			t.Errorf("hop %d stack mismatch", i)
		}
	}
}

func TestTraceStringRendering(t *testing.T) {
	tn := build(t, netsim.ModeSR, true, true)
	tr, err := tn.tracer().Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	s := tr.String()
	if s == "" || len(s) < 50 {
		t.Errorf("String too short: %q", s)
	}
}

func TestICMPMethodTrace(t *testing.T) {
	tn := build(t, netsim.ModeSR, true, true)
	tc := tn.tracer()
	tc.Method = MethodICMP
	tr, err := tc.Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Reached() {
		t.Fatalf("ICMP trace did not reach: %s", tr)
	}
	last := tr.Hops[len(tr.Hops)-1]
	if last.ICMPType != pkt.ICMPEchoReply {
		t.Errorf("last hop type = %d, want echo reply", last.ICMPType)
	}
	// Intermediate hops still quote the MPLS stacks (the time-exceeded
	// path is probe-type agnostic).
	labeled := 0
	for _, h := range tr.Hops {
		if h.HasStack() {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no LSEs via ICMP probing")
	}
	// Same hop addresses as UDP probing (same flow-stable path).
	tcUDP := tn.tracer()
	trUDP, err := tcUDP.Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trUDP.Hops) != len(tr.Hops) {
		t.Errorf("ICMP path length %d != UDP %d", len(tr.Hops), len(trUDP.Hops))
	}
}

func TestICMPMethodSilentEchoTarget(t *testing.T) {
	// If the destination router drops pings, an ICMP-method trace cannot
	// complete — the classic reason TNT prefers UDP.
	tn := build(t, netsim.ModeIP, true, true)
	tn.pe2.Profile.RespondsEcho = false
	tc := tn.tracer()
	tc.Method = MethodICMP
	tr, err := tc.Trace(context.Background(), tn.pe2.Loopback, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reached() {
		t.Errorf("trace reached a ping-dropping target: %s", tr)
	}
}

func TestTracerRetriesRecoverLossyHops(t *testing.T) {
	tn := build(t, netsim.ModeIP, true, true)
	for _, p := range tn.ps {
		p.Profile.ICMPLossProb = 0.5
	}
	noRetry := tn.tracer()
	noRetry.Retries = 0
	withRetry := tn.tracer()
	withRetry.Retries = 3

	gaps := func(tc *Tracer) int {
		n := 0
		for f := uint16(0); f < 8; f++ {
			tr, err := tc.Trace(context.Background(), tn.target, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range tr.Hops {
				if !h.Responded() {
					n++
				}
			}
		}
		return n
	}
	g0, g3 := gaps(noRetry), gaps(withRetry)
	if g0 == 0 {
		t.Fatal("no gaps despite 50% loss")
	}
	if g3 >= g0 {
		t.Errorf("retries did not reduce gaps: %d -> %d", g0, g3)
	}
}
