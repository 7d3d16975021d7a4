package fingerprint

import (
	"context"
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/probe"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestSignatureClassify(t *testing.T) {
	cases := []struct {
		sig  Signature
		want mpls.Vendor
	}{
		{Signature{255, 255}, mpls.VendorCiscoHuawei},
		{Signature{255, 64}, mpls.VendorJuniper},
		{Signature{64, 255}, mpls.VendorNokia},
		{Signature{64, 64}, mpls.VendorUnknown},
		{Signature{128, 128}, mpls.VendorUnknown},
		{Signature{32, 255}, mpls.VendorUnknown},
	}
	for _, c := range cases {
		if got := c.sig.Classify(); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.sig, got, c.want)
		}
	}
}

// mixedNet: gw(Linux) - c1(Cisco) - j1(Juniper) - h1(Huawei) - n1(Nokia) - target
func mixedNet(t *testing.T, snmpOpen func(v mpls.Vendor) bool, echo func(v mpls.Vendor) bool) (*netsim.Network, *probe.Tracer, map[string]*netsim.Router) {
	t.Helper()
	n := netsim.New(9)
	rs := map[string]*netsim.Router{}
	mk := func(name string, v mpls.Vendor) *netsim.Router {
		p := netsim.DefaultProfile(v)
		p.SNMPOpen = snmpOpen(v)
		p.RespondsEcho = echo(v)
		r := n.AddRouter(netsim.RouterConfig{Name: name, ASN: 300, Vendor: v, Profile: p, Mode: netsim.ModeIP})
		rs[name] = r
		return r
	}
	gw := n.AddRouter(netsim.RouterConfig{Name: "gw", ASN: 65000, Vendor: mpls.VendorLinux,
		Profile: netsim.DefaultProfile(mpls.VendorLinux), Mode: netsim.ModeIP})
	rs["gw"] = gw
	c1 := mk("c1", mpls.VendorCisco)
	j1 := mk("j1", mpls.VendorJuniper)
	h1 := mk("h1", mpls.VendorHuawei)
	n1 := mk("n1", mpls.VendorNokia)
	n.Connect(gw.ID, c1.ID, 10)
	n.Connect(c1.ID, j1.ID, 10)
	n.Connect(j1.ID, h1.ID, 10)
	n.Connect(n1.ID, h1.ID, 10)
	vp := a("172.16.0.9")
	tgt := a("100.1.0.77")
	n.AddHost(vp, gw.ID)
	n.AddHost(tgt, n1.ID)
	n.Compute()
	return n, probe.NewTracer(probe.NetsimConn{Net: n}, vp), rs
}

func TestCollectTTLClassifiesVendors(t *testing.T) {
	_, tc, rs := mixedNet(t,
		func(mpls.Vendor) bool { return false },
		func(mpls.Vendor) bool { return true })
	tr, err := tc.Trace(context.Background(), a("100.1.0.77"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := CollectTTL(context.Background(), []*probe.Trace{tr}, tc, 1, nil)
	if err != nil {
		t.Fatalf("CollectTTL: %v", err)
	}

	ifc := func(name, nb string) netip.Addr {
		addr, ok := rs[name].InterfaceTo(rs[nb].ID)
		if !ok {
			t.Fatalf("no iface %s->%s", name, nb)
		}
		return addr
	}
	// Cisco and Huawei both classify as the ambiguity class.
	if v := ttl[ifc("c1", "gw")]; v != mpls.VendorCiscoHuawei {
		t.Errorf("c1 = %v, want Cisco/Huawei", v)
	}
	if v := ttl[ifc("h1", "j1")]; v != mpls.VendorCiscoHuawei {
		t.Errorf("h1 = %v, want Cisco/Huawei", v)
	}
	if v := ttl[ifc("j1", "c1")]; v != mpls.VendorJuniper {
		t.Errorf("j1 = %v, want Juniper", v)
	}
	// Nokia answered the trace with time-exceeded? n1 is the last router
	// before the target; it appears with signature <64,255> => Nokia.
	if v := ttl[ifc("n1", "h1")]; v != mpls.VendorNokia {
		t.Errorf("n1 = %v, want Nokia", v)
	}
}

func TestCollectTTLRequiresEcho(t *testing.T) {
	// Nobody answers pings: no TTL fingerprints at all (the ESnet case).
	_, tc, _ := mixedNet(t,
		func(mpls.Vendor) bool { return false },
		func(mpls.Vendor) bool { return false })
	tr, err := tc.Trace(context.Background(), a("100.1.0.77"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := CollectTTL(context.Background(), []*probe.Trace{tr}, tc, 1, nil)
	if err != nil {
		t.Fatalf("CollectTTL: %v", err)
	}
	if len(ttl) != 0 {
		t.Errorf("fingerprints without echo replies: %v", ttl)
	}
}

func TestSNMPDataset(t *testing.T) {
	n, _, rs := mixedNet(t,
		func(v mpls.Vendor) bool { return v == mpls.VendorCisco || v == mpls.VendorJuniper },
		func(mpls.Vendor) bool { return true })
	ds := SNMPDataset(n)
	c1 := rs["c1"]
	if v := ds[c1.Loopback]; v != mpls.VendorCisco {
		t.Errorf("c1 loopback = %v, want exact Cisco", v)
	}
	// Every interface of an open router is covered.
	for _, ifaceAddr := range c1.Interfaces() {
		if ds[ifaceAddr] != mpls.VendorCisco {
			t.Errorf("iface %s missing from dataset", ifaceAddr)
		}
	}
	// Closed routers are absent.
	if _, ok := ds[rs["h1"].Loopback]; ok {
		t.Error("SNMP-closed router present in dataset")
	}
}

func TestSNMPDatasetExcludesArista(t *testing.T) {
	n := netsim.New(1)
	p := netsim.DefaultProfile(mpls.VendorArista)
	p.SNMPOpen = true
	r := n.AddRouter(netsim.RouterConfig{ASN: 1, Vendor: mpls.VendorArista, Profile: p})
	n.Compute()
	if ds := SNMPDataset(n); len(ds) != 0 {
		t.Errorf("Arista fingerprinted via SNMPv3: %v (router %s)", ds, r.Name)
	}
}

func TestAnnotatorPrecedence(t *testing.T) {
	addr1, addr2, addr3 := a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.3")
	ann := NewAnnotator(
		map[netip.Addr]mpls.Vendor{addr1: mpls.VendorHuawei},
		map[netip.Addr]mpls.Vendor{addr1: mpls.VendorCiscoHuawei, addr2: mpls.VendorCiscoHuawei},
	)
	// SNMP wins on conflict.
	if r := ann.Vendor(addr1); r.Vendor != mpls.VendorHuawei || r.Source != SourceSNMP {
		t.Errorf("addr1 = %+v", r)
	}
	if r := ann.Vendor(addr2); r.Vendor != mpls.VendorCiscoHuawei || r.Source != SourceTTL {
		t.Errorf("addr2 = %+v", r)
	}
	if r := ann.Vendor(addr3); r.Vendor != mpls.VendorUnknown || r.Source != SourceNone {
		t.Errorf("addr3 = %+v", r)
	}
}

func TestAnnotatorNilMaps(t *testing.T) {
	ann := NewAnnotator(nil, nil)
	if r := ann.Vendor(a("10.0.0.1")); r.Source != SourceNone {
		t.Errorf("nil annotator returned %+v", r)
	}
}
