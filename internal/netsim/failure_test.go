package netsim

import (
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/pkt"
)

// resilienceNet builds a square with a shortcut:
//
//	gw - s - a - d - target
//	         |   |
//	         b --+      (a-b and b-d form the protection path)
func resilienceNet(t *testing.T) (*Network, netip.Addr, netip.Addr, *Router, *Router, *Router, *Router) {
	t.Helper()
	n := New(77)
	prof := DefaultProfile(mpls.VendorCisco)
	gw := n.AddRouter(RouterConfig{Name: "gw", ASN: 65000, Vendor: mpls.VendorLinux,
		Profile: DefaultProfile(mpls.VendorLinux), Mode: ModeIP})
	mk := func(name string) *Router {
		return n.AddRouter(RouterConfig{Name: name, ASN: 100, Vendor: mpls.VendorCisco,
			Profile: prof, SREnabled: true, Mode: ModeSR})
	}
	s, ra, rb, d := mk("s"), mk("a"), mk("b"), mk("d")
	n.Connect(gw.ID, s.ID, 10)
	n.Connect(s.ID, ra.ID, 10)
	n.Connect(ra.ID, d.ID, 10)
	n.Connect(ra.ID, rb.ID, 10)
	n.Connect(rb.ID, d.ID, 10)
	vp := a("172.16.0.10")
	tgt := a("100.1.0.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(tgt, d.ID)
	n.Compute()
	return n, vp, tgt, s, ra, rb, d
}

func pathOfProbe(t *testing.T, n *Network, vp, tgt netip.Addr) []RouterID {
	t.Helper()
	var path []RouterID
	if _, err := n.send(vp, udpProbe(vp, tgt, 32, 33434), nil, &path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLinkFailureReconvergence(t *testing.T) {
	n, vp, tgt, _, ra, rb, d := resilienceNet(t)
	// Before the failure the path goes ...a -> d directly.
	before := pathOfProbe(t, n, vp, tgt)
	if before[len(before)-1] != d.ID || !containsID(before, ra.ID) || containsID(before, rb.ID) {
		t.Fatalf("pre-failure path = %v", before)
	}
	// Fail a-d; after reconvergence the path detours via b.
	n.SetLinkState(ra.ID, d.ID, false)
	n.Compute()
	after := pathOfProbe(t, n, vp, tgt)
	if !containsID(after, rb.ID) {
		t.Fatalf("post-failure path = %v does not detour via b", after)
	}
	if len(after) != len(before)+1 {
		t.Errorf("detour length = %d, want %d", len(after), len(before)+1)
	}
	// Bring it back: the original path returns.
	n.SetLinkState(ra.ID, d.ID, true)
	n.Compute()
	restored := pathOfProbe(t, n, vp, tgt)
	if containsID(restored, rb.ID) {
		t.Errorf("restored path still detours: %v", restored)
	}
}

// TestSetLinkStateWithoutLinkPanics: s and d share no link, and setting
// the state of a link that does not exist is a bug in the caller, as
// connecting two routers twice is.
func TestSetLinkStateWithoutLinkPanics(t *testing.T) {
	n, _, _, s, _, _, d := resilienceNet(t)
	defer func() {
		if recover() == nil {
			t.Error("SetLinkState on two routers without a link did not panic")
		}
	}()
	n.SetLinkState(s.ID, d.ID, false)
}

func TestAdjacencySIDOverDeadLinkDrops(t *testing.T) {
	n, vp, tgt, _, ra, _, d := resilienceNet(t)
	// Policy pins the a->d adjacency.
	n.SRPolicy = func(ing *Router, egress RouterID, dst netip.Addr, flow uint64) SegmentList {
		return SegmentList{{Node: ra.ID}, {From: ra.ID, To: d.ID, Adj: true}, {Node: d.ID}}
	}
	n.Compute()
	del, err := n.Send(vp, udpProbe(vp, tgt, 32, 33434), nil)
	if err != nil {
		t.Fatal(err)
	}
	if del.Reply == nil {
		t.Fatal("pinned path failed before the failure")
	}
	// Fail the pinned link but do NOT reconverge the policy: the adjacency
	// segment now points at a dead link and the packet is dropped — the
	// window fast-reroute exists to close.
	n.SetLinkState(ra.ID, d.ID, false)
	n.Compute()
	del, err = n.Send(vp, udpProbe(vp, tgt, 32, 33434), nil)
	if err != nil {
		t.Fatal(err)
	}
	if del.Reply != nil {
		var rip pkt.IPv4
		err := pkt.UnmarshalIPv4Into(&rip, del.Reply)
		t.Fatalf("stale adjacency segment still delivered (reply from %v, %v)", rip.Src, err)
	}
}

func TestProtectionPolicyRestoresDelivery(t *testing.T) {
	n, vp, tgt, _, ra, rb, d := resilienceNet(t)
	n.SetLinkState(ra.ID, d.ID, false)
	// Protection: reach d via b explicitly (node segment through b).
	n.SRPolicy = func(ing *Router, egress RouterID, dst netip.Addr, flow uint64) SegmentList {
		return SegmentList{{Node: rb.ID}, {Node: d.ID}}
	}
	n.Compute()
	var path []RouterID
	del, err := n.send(vp, udpProbe(vp, tgt, 32, 33434), nil, &path)
	if err != nil {
		t.Fatal(err)
	}
	if del.Reply == nil {
		t.Fatal("protection policy did not restore delivery")
	}
	if !containsID(path, rb.ID) {
		t.Errorf("protected path %v does not use b", path)
	}
}

func containsID(ids []RouterID, id RouterID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
