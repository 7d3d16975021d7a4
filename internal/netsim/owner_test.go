package netsim_test

import (
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/netsim"
)

// linearOwner is the brute-force longest-prefix match Owner replaced: a
// scan of every advertised prefix.
func linearOwner(n *netsim.Network, a netip.Addr) (netsim.RouterID, bool) {
	best := -1
	var owner netsim.RouterID
	for p, id := range netsim.Prefixes(n) {
		if p.Contains(a) && p.Bits() > best {
			best = p.Bits()
			owner = id
		}
	}
	return owner, best >= 0
}

func checkOwner(t *testing.T, name string, n *netsim.Network, a netip.Addr) {
	t.Helper()
	id, ok := n.Owner(a)
	wantID, wantOK := linearOwner(n, a)
	if id != wantID || ok != wantOK {
		t.Fatalf("%s: Owner(%v) = %v,%v, linear scan %v,%v", name, a, id, ok, wantID, wantOK)
	}
}

// TestOwnerMatchesLinearScan checks the exact-match Owner against a
// brute-force longest-prefix scan on every catalogue world: every loopback,
// interface and host, one address inside each customer /24, and one
// address no prefix covers. It then pins the edge cases on a small
// network: two spellings of one prefix are a single entry, so the later
// advertisement owns it deterministically; a /32 beats the /24 holding
// it; and an invalid prefix never matches.
func TestOwnerMatchesLinearScan(t *testing.T) {
	uncovered := netip.MustParseAddr("192.0.2.1")
	for _, w := range catalogueWorlds(t) {
		name, n := w.Record.Name, w.Net
		for _, r := range n.Routers() {
			for _, a := range r.Interfaces() { // loopback first
				checkOwner(t, name, n, a)
			}
		}
		for _, h := range n.Hosts() {
			checkOwner(t, name, n, h.Addr)
		}
		customers := 0
		for p := range netsim.Prefixes(n) {
			if p.Bits() == 24 {
				b := p.Addr().As4()
				b[3] = 99
				checkOwner(t, name, n, netip.AddrFrom4(b))
				customers++
			}
		}
		if customers == 0 {
			t.Fatalf("%s: no customer prefixes", name)
		}
		if _, ok := n.Owner(uncovered); ok {
			t.Fatalf("%s: uncovered %v has an owner", name, uncovered)
		}
	}

	n := netsim.New(1)
	prof := netsim.DefaultProfile(mpls.VendorLinux)
	r1 := n.AddRouter(netsim.RouterConfig{ASN: 1, Vendor: mpls.VendorLinux, Profile: prof})
	r2 := n.AddRouter(netsim.RouterConfig{ASN: 1, Vendor: mpls.VendorLinux, Profile: prof})
	n.AdvertisePrefix(r1.ID, netip.MustParsePrefix("100.1.2.0/24"))
	n.AdvertisePrefix(r2.ID, netip.MustParsePrefix("100.1.2.7/24"))
	n.AdvertisePrefix(r1.ID, netip.MustParsePrefix("100.1.2.9/32"))
	n.AdvertisePrefix(r1.ID, netip.Prefix{})
	n.AdvertisePrefix(r1.ID, netip.PrefixFrom(netip.MustParseAddr("100.9.0.0"), 33))
	n.Compute()
	for _, tc := range []struct {
		addr string
		want netsim.RouterID
	}{
		{"100.1.2.50", r2.ID}, // the later spelling of the /24
		{"100.1.2.9", r1.ID},  // the /32 beats the /24
	} {
		a := netip.MustParseAddr(tc.addr)
		if id, ok := n.Owner(a); !ok || id != tc.want {
			t.Errorf("Owner(%v) = %v,%v, want %v", a, id, ok, tc.want)
		}
		checkOwner(t, "small network", n, a)
	}
	for _, a := range []netip.Addr{{}, netip.MustParseAddr("100.9.0.0"), netip.MustParseAddr("0.0.0.0")} {
		if id, ok := n.Owner(a); ok {
			t.Errorf("Owner(%v) = %v through an invalid prefix", a, id)
		}
		checkOwner(t, "invalid prefix", n, a)
	}
}
