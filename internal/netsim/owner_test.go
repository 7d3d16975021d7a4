package netsim_test

import (
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/pkt"
)

// linearOwner is the brute-force longest-prefix match routeOwner
// replaced: a scan of every routed prefix, -1 when none covers a.
func linearOwner(n *netsim.Network, a netip.Addr) netsim.RouterID {
	best, owner := -1, netsim.RouterID(-1)
	for p, id := range netsim.Prefixes(n) {
		if p.Contains(a) && p.Bits() > best {
			best, owner = p.Bits(), id
		}
	}
	return owner
}

// addrTable is the brute-force reference for the address table: the
// router owning each interface and loopback address (read through
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
	for _, h := range netsim.Hosts(n) {
		tab.host[h.Addr] = h
	}
	return tab
}

// owner is a's owner found without the address table: a router's own
// address belongs to that router, a host's address to its gateway, and
// any other address to the longest routed prefix covering it. It holds
// where no /32 is advertised and no host sits on a router's address, as
// in every catalogue world; otherwise the later write owns the address,
// and the caller names it.
func (tab addrTable) owner(n *netsim.Network, a netip.Addr) netsim.RouterID {
	if id, ok := tab.router[a]; ok {
		return id
	}
	if h, ok := tab.host[a]; ok {
		return h.Gateway
	}
	return linearOwner(n, a)
}

// checkOwner checks what Send resolves for a as a destination against
// the definitions: the owner wantOwner (-1 for no route), the router
// whose own address it is (-1 for none), the attached host, and tunnel
// eligibility (everything but a bare interface address).
func checkOwner(t *testing.T, name string, n *netsim.Network, tab addrTable, a netip.Addr, wantOwner netsim.RouterID) {
	t.Helper()
	wantRouter, isRouter := tab.router[a]
	if !isRouter {
		wantRouter = -1
	}
	wantEligible := !isRouter || n.Router(wantRouter).Loopback == a
	owner, router, host, eligible := netsim.Resolve(n, a)
	if owner != wantOwner || router != wantRouter || host != tab.host[a] || eligible != wantEligible {
		t.Fatalf("%s: resolve(%v) = owner %v, router %v, host %v, eligible %v; want %v, %v, %v, %v",
			name, a, owner, router, host, eligible, wantOwner, wantRouter, tab.host[a], wantEligible)
	}
	if r, ok := n.RouterByAddr(a); ok != isRouter || (ok && r.ID != wantRouter) {
		t.Fatalf("%s: RouterByAddr(%v) = %v, %v; want router %v", name, a, r, ok, wantRouter)
	}
}

// TestOwnerMatchesLinearScan checks Send's destination record against
// its definitions, the owner against a brute-force longest-prefix scan of
// the routed prefixes, on every catalogue world: every loopback,
// interface and host, one address inside each customer /24, and one
// address no prefix covers. It then pins the edge cases on a small
// network: two spellings of one prefix are a single entry, so the later
// advertisement owns it deterministically; a /24 beats the /16 holding
// it, and a /32 the /24; a host attached after a /32 on its address
// belongs to its gateway and answers; of a host and a router's loopback
// at one address, the later owns it and both stay; the routed prefixes
// hold neither /32 nor invalid prefix, and an invalid prefix never
// matches; and a host address that is not IPv4 panics.
func TestOwnerMatchesLinearScan(t *testing.T) {
	uncovered := netip.MustParseAddr("192.0.2.1")
	for _, w := range catalogueWorlds(t) {
		name, n := w.Record.Name, w.Net
		tab := newAddrTable(n)
		if len(tab.host) != len(w.VPs)+len(w.Edges) {
			t.Fatalf("%s: %d hosts, want %d VPs and a target behind each of %d edges",
				name, len(tab.host), len(w.VPs), len(w.Edges))
		}
		for _, r := range n.Routers() {
			for _, a := range r.Interfaces() { // loopback first
				checkOwner(t, name, n, tab, a, tab.owner(n, a))
			}
		}
		for _, h := range netsim.Hosts(n) {
			checkOwner(t, name, n, tab, h.Addr, tab.owner(n, h.Addr))
		}
		customers := 0
		for p := range netsim.Prefixes(n) {
			if p.Bits() == 24 {
				b := p.Addr().As4()
				b[3] = 99
				a := netip.AddrFrom4(b)
				checkOwner(t, name, n, tab, a, tab.owner(n, a))
				customers++
			}
		}
		if customers == 0 {
			t.Fatalf("%s: no customer prefixes", name)
		}
		checkOwner(t, name, n, tab, uncovered, -1)
	}

	n := netsim.New(1)
	prof := netsim.DefaultProfile(mpls.VendorLinux)
	r1 := n.AddRouter(netsim.RouterConfig{ASN: 1, Vendor: mpls.VendorLinux, Profile: prof})
	r2 := n.AddRouter(netsim.RouterConfig{ASN: 1, Vendor: mpls.VendorLinux, Profile: prof})
	early := n.AddHost(netip.MustParseAddr("10.1.0.3"), r1.ID) // the next loopback of AS 1
	r3 := n.AddRouter(netsim.RouterConfig{ASN: 1, Vendor: mpls.VendorLinux, Profile: prof})
	n.AdvertisePrefix(r1.ID, netip.MustParsePrefix("100.1.0.0/16"))
	n.AdvertisePrefix(r1.ID, netip.MustParsePrefix("100.1.2.0/24"))
	n.AdvertisePrefix(r2.ID, netip.MustParsePrefix("100.1.2.7/24"))
	n.AdvertisePrefix(r1.ID, netip.MustParsePrefix("100.1.2.9/32"))
	n.AdvertisePrefix(r1.ID, netip.Prefix{})
	n.AdvertisePrefix(r1.ID, netip.PrefixFrom(netip.MustParseAddr("100.9.0.0"), 33))
	n.AdvertisePrefix(r1.ID, netip.MustParsePrefix("100.1.2.30/32"))
	host := n.AddHost(netip.MustParseAddr("100.1.2.30"), r2.ID)
	vp := n.AddHost(netip.MustParseAddr("172.16.0.10"), r2.ID)
	n.AddHost(r2.Loopback, r1.ID)
	n.Compute()
	tab := newAddrTable(n)
	if len(netsim.Prefixes(n)) != 2 || len(tab.host) != 4 {
		t.Errorf("routed prefixes %v and %d hosts, want the /24 and the /16, and the 4 hosts added",
			netsim.Prefixes(n), len(tab.host))
	}
	for _, tc := range []struct {
		addr string
		want netsim.RouterID
	}{
		{"100.1.2.50", r2.ID},         // the later spelling of the /24, which beats the /16
		{"100.1.3.1", r1.ID},          // the /16
		{"100.1.2.9", r1.ID},          // the /32 beats the /24
		{"100.1.2.30", r2.ID},         // the host's gateway, added after the /32
		{r2.Loopback.String(), r1.ID}, // a host on a router's loopback: its gateway
		{early.Addr.String(), r3.ID},  // a loopback made where a host sits: the router
	} {
		checkOwner(t, "small network", n, tab, netip.MustParseAddr(tc.addr), tc.want)
	}
	ub, err := (&pkt.UDP{SrcPort: 33434, DstPort: 33434}).AppendMarshal(nil, vp.Addr, host.Addr)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := (&pkt.IPv4{TTL: 32, Protocol: pkt.ProtoUDP, Src: vp.Addr, Dst: host.Addr, Payload: ub}).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := n.Send(vp.Addr, wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ip pkt.IPv4
	if err := pkt.UnmarshalIPv4Into(&ip, d.Reply); err != nil || ip.Src != host.Addr {
		t.Errorf("probe to the host behind a /32: reply %v (%v), want one from %v", &ip, err, host.Addr)
	}
	for _, a := range []netip.Addr{{}, netip.MustParseAddr("100.9.0.0"), netip.MustParseAddr("0.0.0.0")} {
		checkOwner(t, "invalid prefix", n, tab, a, -1)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddHost of an IPv6 address did not panic")
		}
	}()
	n.AddHost(netip.MustParseAddr("2001:db8::1"), r1.ID)
}
