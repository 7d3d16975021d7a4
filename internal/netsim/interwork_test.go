package netsim

import (
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/pkt"
)

// interworkNet builds an AS where an SR region and an LDP region meet at a
// border router:
//
//	vp -- GW -- PE1(SR) -- S1(SR) -- B(SR+LDP) -- L1(LDP) -- PE2(LDP) -- target
//
// All routers are Cisco with default profiles (explicit tunnels).
type interworkNet struct {
	net            *Network
	vp, target     netip.Addr
	gw, pe1, s1, b *Router
	l1, pe2        *Router
}

func buildInterwork(t *testing.T, mappingServer bool) *interworkNet {
	t.Helper()
	n := New(11)
	n.MappingServer = mappingServer
	prof := DefaultProfile(mpls.VendorCisco)
	gw := n.AddRouter(RouterConfig{Name: "gw", ASN: 65000, Vendor: mpls.VendorLinux,
		Profile: DefaultProfile(mpls.VendorLinux), Mode: ModeIP})
	sr := func(name string) *Router {
		return n.AddRouter(RouterConfig{Name: name, ASN: 200, Vendor: mpls.VendorCisco,
			Profile: prof, SREnabled: true, Mode: ModeSR})
	}
	ldp := func(name string) *Router {
		return n.AddRouter(RouterConfig{Name: name, ASN: 200, Vendor: mpls.VendorCisco,
			Profile: prof, LDPEnabled: true, Mode: ModeLDP})
	}
	pe1 := sr("pe1")
	s1 := sr("s1")
	b := n.AddRouter(RouterConfig{Name: "b", ASN: 200, Vendor: mpls.VendorCisco,
		Profile: prof, SREnabled: true, LDPEnabled: true, Mode: ModeSR})
	l1 := ldp("l1")
	pe2 := ldp("pe2")
	n.Connect(gw.ID, pe1.ID, 10)
	n.Connect(pe1.ID, s1.ID, 10)
	n.Connect(s1.ID, b.ID, 10)
	n.Connect(b.ID, l1.ID, 10)
	n.Connect(l1.ID, pe2.ID, 10)
	vp := a("172.16.1.10")
	target := a("100.1.1.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(target, pe2.ID)
	n.Compute()
	return &interworkNet{net: n, vp: vp, target: target, gw: gw, pe1: pe1, s1: s1, b: b, l1: l1, pe2: pe2}
}

func (iw *interworkNet) trace(t *testing.T, dst netip.Addr) []*hopReply {
	t.Helper()
	var hops []*hopReply
	for ttl := 1; ttl <= 12; ttl++ {
		d, err := iw.net.Send(iw.vp, udpProbe(iw.vp, dst, uint8(ttl), 33434), nil)
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

func TestSRToLDPInterworkingWithMappingServer(t *testing.T) {
	iw := buildInterwork(t, true)
	hops := iw.trace(t, iw.target)
	// gw, pe1, s1, b, l1, pe2, host = 7 hops, all visible (explicit).
	if len(hops) != 7 {
		t.Fatalf("got %d hops, want 7", len(hops))
	}
	// s1 and b carry the SRMS-advertised node SID of pe2 (same label,
	// shared SRGB).
	srLabel := iw.s1.SRGB.Lo + uint32(iw.pe2.NodeIndex())
	for i, idx := range []int{2, 3} {
		h := hops[idx]
		if h.stack == nil || h.stack[0].Label != srLabel {
			t.Errorf("SR hop %d: stack %v, want label %d", i, h.stack, srLabel)
		}
	}
	// l1 carries its own LDP label for FEC pe2 (the border swapped SR→LDP).
	l1Label, ok := iw.l1.LDPLabel(iw.pe2.ID)
	if !ok {
		t.Fatal("l1 has no LDP binding for pe2")
	}
	if hops[4].stack == nil || hops[4].stack[0].Label != l1Label {
		t.Errorf("l1 stack = %v, want LDP label %d", hops[4].stack, l1Label)
	}
	if mpls.CiscoSRGB.Contains(l1Label) {
		t.Errorf("LDP label %d unexpectedly inside SRGB", l1Label)
	}
	// PHP: pe2 receives unlabeled (l1 is the penultimate hop).
	if hops[5].stack != nil {
		t.Errorf("pe2 should be unlabeled after implicit null: %v", hops[5].stack)
	}
}

func TestSRToLDPWithoutMappingServerFallsBackToIP(t *testing.T) {
	iw := buildInterwork(t, false)
	hops := iw.trace(t, iw.target)
	if len(hops) != 7 {
		t.Fatalf("got %d hops, want 7", len(hops))
	}
	// pe2 has no prefix SID and pe1/s1 have no LDP: the SR region forwards
	// plain IP. The border b, which does run LDP, re-tunnels into the LDP
	// region, so only l1 shows a label (pe2 is PHP-popped).
	for _, i := range []int{0, 1, 2, 3, 5} { // gw, pe1, s1, b, pe2
		if h := hops[i]; h != nil && h.stack != nil {
			t.Errorf("hop %d labeled: %v", i, h.stack)
		}
	}
	l1Label, _ := iw.l1.LDPLabel(iw.pe2.ID)
	if hops[4].stack == nil || hops[4].stack[0].Label != l1Label {
		t.Errorf("l1 stack = %v, want LDP label %d", hops[4].stack, l1Label)
	}
}

func TestLDPToSRInterworking(t *testing.T) {
	// Reverse direction: target behind pe1 (the SR side), probing from a
	// vantage point behind pe2's region. LDP→SR needs no mapping server.
	iw := buildInterwork(t, false)
	vp2 := a("172.16.2.10")
	gw2 := iw.net.AddRouter(RouterConfig{Name: "gw2", ASN: 65001, Vendor: mpls.VendorLinux,
		Profile: DefaultProfile(mpls.VendorLinux), Mode: ModeIP})
	iw.net.Connect(gw2.ID, iw.pe2.ID, 10)
	iw.net.AddHost(vp2, gw2.ID)
	target2 := a("100.1.1.40")
	iw.net.AddHost(target2, iw.pe1.ID)
	iw.net.Compute()

	var hops []*hopReply
	for ttl := 1; ttl <= 12; ttl++ {
		d, err := iw.net.Send(vp2, udpProbe(vp2, target2, uint8(ttl), 33434), nil)
		if err != nil {
			t.Fatal(err)
		}
		h := parseReply(t, d.Reply)
		hops = append(hops, h)
		if h != nil && h.icmpType == pkt.ICMPDestUnreachable {
			break
		}
	}
	// gw2, pe2, l1, b, s1, pe1, host = 7 hops.
	if len(hops) != 7 {
		t.Fatalf("got %d hops, want 7: %+v", len(hops), hops)
	}
	// l1 and b carry LDP labels (distinct, locally significant).
	l1Label, _ := iw.l1.LDPLabel(iw.pe1.ID)
	bLabel, _ := iw.b.LDPLabel(iw.pe1.ID)
	if hops[2].stack == nil || hops[2].stack[0].Label != l1Label {
		t.Errorf("l1 stack = %v, want %d", hops[2].stack, l1Label)
	}
	if hops[3].stack == nil || hops[3].stack[0].Label != bLabel {
		t.Errorf("b stack = %v, want %d", hops[3].stack, bLabel)
	}
	// s1 carries pe1's node SID: the border swapped LDP→SR.
	srLabel := iw.s1.SRGB.Lo + uint32(iw.pe1.NodeIndex())
	if hops[4].stack == nil || hops[4].stack[0].Label != srLabel {
		t.Errorf("s1 stack = %v, want SR label %d", hops[4].stack, srLabel)
	}
	// pe1 also shows the SR label (no PHP for SR).
	if hops[5].stack == nil || hops[5].stack[0].Label != srLabel {
		t.Errorf("pe1 stack = %v, want SR label %d", hops[5].stack, srLabel)
	}
}

func TestMappingServerGrantsSIDsToLDPRouters(t *testing.T) {
	with := buildInterwork(t, true)
	without := buildInterwork(t, false)
	if with.pe2.NodeIndex() < 0 {
		t.Error("mapping server did not assign a SID to the LDP-only router")
	}
	if without.pe2.NodeIndex() >= 0 {
		t.Error("LDP-only router has a SID without a mapping server")
	}
	if with.pe1.NodeIndex() < 0 || without.pe1.NodeIndex() < 0 {
		t.Error("SR router missing node SID")
	}
}

func TestBorderRouterGeneratesLDPBindings(t *testing.T) {
	iw := buildInterwork(t, false)
	// The border B runs both planes and must hold LDP bindings; the pure
	// SR router s1 is adjacent only to SR/border routers... s1's neighbor
	// b is SR-capable, so s1 needs no LDP bindings.
	if _, ok := iw.b.LDPLabel(iw.pe1.ID); !ok {
		t.Error("border router lacks LDP binding for SR-side FEC")
	}
	if _, ok := iw.s1.LDPLabel(iw.pe2.ID); ok {
		t.Error("pure SR router with no LDP neighbors generated LDP bindings")
	}
}
