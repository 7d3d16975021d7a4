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

// addrTable is the brute-force reference for the exact-address index:
// the router owning each interface and loopback address (read through
// Router.Interfaces) and the host with each host address.
type addrTable struct {
	router map[netip.Addr]netsim.RouterID
	host   map[netip.Addr]*netsim.Host
}

func newAddrTable(n *netsim.Network) addrTable {
	tab := addrTable{router: map[netip.Addr]netsim.RouterID{}, host: map[netip.Addr]*netsim.Host{}}
	for _, r := range n.Routers() {
		for _, a := range r.Interfaces() {
			tab.router[a] = r.ID
		}
	}
	for _, h := range n.Hosts() {
		tab.host[h.Addr] = h
	}
	return tab
}

// checkOwner checks Owner against the linear scan, and what Send resolves
// for a as a destination against the definitions: the owner (-1 for no
// route), the router whose own address it is (-1 for none), the attached
// host, and tunnel eligibility (everything but a bare interface address).
func checkOwner(t *testing.T, name string, n *netsim.Network, tab addrTable, a netip.Addr) {
	t.Helper()
	id, ok := n.Owner(a)
	wantID, wantOK := linearOwner(n, a)
	if id != wantID || ok != wantOK {
		t.Fatalf("%s: Owner(%v) = %v,%v, linear scan %v,%v", name, a, id, ok, wantID, wantOK)
	}
	if !wantOK {
		wantID = -1
	}
	wantRouter, isRouter := tab.router[a]
	if !isRouter {
		wantRouter = -1
	}
	wantEligible := !isRouter || n.Router(wantRouter).Loopback == a
	owner, router, host, eligible := netsim.Resolve(n, a)
	if owner != wantID || router != wantRouter || host != tab.host[a] || eligible != wantEligible {
		t.Fatalf("%s: resolve(%v) = owner %v, router %v, host %v, eligible %v; want %v, %v, %v, %v",
			name, a, owner, router, host, eligible, wantID, wantRouter, tab.host[a], wantEligible)
	}
	if r, ok := n.RouterByAddr(a); ok != isRouter || (ok && r.ID != wantRouter) {
		t.Fatalf("%s: RouterByAddr(%v) = %v, %v; want router %v", name, a, r, ok, wantRouter)
	}
	if n.TunnelEligible(a) != wantEligible {
		t.Fatalf("%s: TunnelEligible(%v) = %v", name, a, !wantEligible)
	}
}

// TestOwnerMatchesLinearScan checks the exact-match Owner against a
// brute-force longest-prefix scan, and Send's destination record against
// its definitions, on every catalogue world: every loopback, interface and
// host, one address inside each customer /24, and one address no prefix
// covers. It then pins the edge cases on a small
// network: two spellings of one prefix are a single entry, so the later
// advertisement owns it deterministically; a /32 beats the /24 holding
// it; and an invalid prefix never matches.
func TestOwnerMatchesLinearScan(t *testing.T) {
	uncovered := netip.MustParseAddr("192.0.2.1")
	for _, w := range catalogueWorlds(t) {
		name, n := w.Record.Name, w.Net
		tab := newAddrTable(n)
		for _, r := range n.Routers() {
			for _, a := range r.Interfaces() { // loopback first
				checkOwner(t, name, n, tab, a)
			}
		}
		for _, h := range n.Hosts() {
			checkOwner(t, name, n, tab, h.Addr)
		}
		customers := 0
		for p := range netsim.Prefixes(n) {
			if p.Bits() == 24 {
				b := p.Addr().As4()
				b[3] = 99
				checkOwner(t, name, n, tab, netip.AddrFrom4(b))
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
		checkOwner(t, "small network", n, newAddrTable(n), a)
	}
	for _, a := range []netip.Addr{{}, netip.MustParseAddr("100.9.0.0"), netip.MustParseAddr("0.0.0.0")} {
		if id, ok := n.Owner(a); ok {
			t.Errorf("Owner(%v) = %v through an invalid prefix", a, id)
		}
		checkOwner(t, "invalid prefix", n, newAddrTable(n), a)
	}
}
