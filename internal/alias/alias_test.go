package alias

import (
	"context"
	"net/netip"
	"reflect"
	"testing"

	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/probe"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

// mustResolve runs Resolve and fails the test on probe errors — none of
// the fault-free fixtures should produce any.
func mustResolve(t *testing.T, addrs []netip.Addr, p Prober, cfg Config) [][]netip.Addr {
	t.Helper()
	sets, err := Resolve(context.Background(), addrs, p, cfg)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return sets
}

// meshNet builds a small AS whose routers each have several interfaces, so
// alias resolution has real work to do.
func meshNet(t *testing.T) (*netsim.Network, *probe.Tracer, []*netsim.Router) {
	t.Helper()
	n := netsim.New(17)
	prof := netsim.DefaultProfile(mpls.VendorCisco)
	gw := n.AddRouter(netsim.RouterConfig{Name: "gw", ASN: 65000, Vendor: mpls.VendorLinux,
		Profile: netsim.DefaultProfile(mpls.VendorLinux), Mode: netsim.ModeIP})
	var rs []*netsim.Router
	for i := 0; i < 4; i++ {
		rs = append(rs, n.AddRouter(netsim.RouterConfig{ASN: 100, Vendor: mpls.VendorCisco,
			Profile: prof, Mode: netsim.ModeIP}))
	}
	// Full mesh among the four, plus the gateway on r0.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			n.Connect(rs[i].ID, rs[j].ID, 10)
		}
	}
	n.Connect(gw.ID, rs[0].ID, 10)
	vp := a("172.16.0.2")
	n.AddHost(vp, gw.ID)
	n.Compute()
	return n, probe.NewTracer(probe.NetsimConn{Net: n}, vp), rs
}

func TestResolveFindsTrueAliases(t *testing.T) {
	n, tc, rs := meshNet(t)
	var cands []netip.Addr
	truth := map[netip.Addr]netsim.RouterID{}
	for _, r := range rs {
		for _, ifaceAddr := range r.Interfaces() {
			cands = append(cands, ifaceAddr)
			truth[ifaceAddr] = r.ID
		}
	}
	sets := mustResolve(t, cands, tc, DefaultConfig())
	if len(sets) == 0 {
		t.Fatal("no alias sets found")
	}
	// Soundness: no set mixes interfaces of two routers.
	for _, set := range sets {
		owner := truth[set[0]]
		for _, addr := range set[1:] {
			if truth[addr] != owner {
				t.Errorf("set %v mixes routers %d and %d", set, owner, truth[addr])
			}
		}
	}
	// Completeness: each router's interfaces end up together. Count how
	// many of the 4 routers got a full set.
	full := 0
	for _, set := range sets {
		owner := truth[set[0]]
		r := n.Router(owner)
		if len(set) == len(r.Interfaces()) {
			full++
		}
	}
	if full < 3 {
		t.Errorf("only %d/4 routers fully aliased: %v", full, sets)
	}
}

func TestResolveRejectsNonAliases(t *testing.T) {
	_, tc, rs := meshNet(t)
	// One interface per router: nothing should be aliased.
	var cands []netip.Addr
	for _, r := range rs {
		cands = append(cands, r.Loopback)
	}
	sets := mustResolve(t, cands, tc, DefaultConfig())
	if len(sets) != 0 {
		t.Errorf("false aliases: %v", sets)
	}
}

func TestResolveSkipsUnresponsive(t *testing.T) {
	_, tc, rs := meshNet(t)
	cands := []netip.Addr{rs[0].Loopback, a("203.0.113.99")}
	sets := mustResolve(t, cands, tc, DefaultConfig())
	if len(sets) != 0 {
		t.Errorf("sets = %v", sets)
	}
}

// fakeProber serves scripted IP-ID sequences.
type fakeProber struct {
	ids  map[netip.Addr]*uint16
	step map[netip.Addr]uint16
	ttl  map[netip.Addr]uint8
}

func (f *fakeProber) SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error) {
	p, ok := f.ids[dst]
	if !ok {
		return probe.IPIDSample{}, false, nil
	}
	*p += f.step[dst]
	ttl := f.ttl[dst]
	if ttl == 0 {
		ttl = 250
	}
	return probe.IPIDSample{ID: *p, ReplyTTL: ttl}, true, nil
}

// sharedProber scripts addrs onto one counter starting at base, each
// sample advancing it by 5.
func sharedProber(base uint16, addrs ...netip.Addr) *fakeProber {
	f := &fakeProber{ids: map[netip.Addr]*uint16{}, step: map[netip.Addr]uint16{}, ttl: map[netip.Addr]uint8{}}
	for _, addr := range addrs {
		f.ids[addr], f.step[addr] = &base, 5
	}
	return f
}

func TestSharedCounterWraparound(t *testing.T) {
	// Two addresses sharing a counter that wraps around 0xffff must still
	// be detected as aliases.
	ctr := uint16(0xfff0)
	f := &fakeProber{
		ids:  map[netip.Addr]*uint16{a("10.0.0.1"): &ctr, a("10.0.0.2"): &ctr},
		step: map[netip.Addr]uint16{a("10.0.0.1"): 5, a("10.0.0.2"): 5},
		ttl:  map[netip.Addr]uint8{},
	}
	sets := mustResolve(t, []netip.Addr{a("10.0.0.1"), a("10.0.0.2")}, f, DefaultConfig())
	if len(sets) != 1 || len(sets[0]) != 2 {
		t.Errorf("wraparound aliases missed: %v", sets)
	}
}

func TestAPPLEPruning(t *testing.T) {
	// Same shared counter but wildly different path lengths: APPLE prunes
	// the pair before the IP-ID test can (wrongly or rightly) fire.
	ctr := uint16(100)
	f := &fakeProber{
		ids:  map[netip.Addr]*uint16{a("10.0.0.1"): &ctr, a("10.0.0.2"): &ctr},
		step: map[netip.Addr]uint16{a("10.0.0.1"): 5, a("10.0.0.2"): 5},
		ttl:  map[netip.Addr]uint8{a("10.0.0.1"): 250, a("10.0.0.2"): 200},
	}
	sets := mustResolve(t, []netip.Addr{a("10.0.0.1"), a("10.0.0.2")}, f, DefaultConfig())
	if len(sets) != 0 {
		t.Errorf("APPLE pruning failed: %v", sets)
	}
}

func TestResolveParallelMatchesSequential(t *testing.T) {
	// The same candidate set resolved sequentially and with 8 workers must
	// yield identical alias sets: probes are pure functions of (addr, seq)
	// and the conflict-ordered schedule replays the sequential probe order
	// on every shared IP-ID counter. Run under -race this also exercises
	// concurrent netsim.Send on one shared Network.
	run := func(workers int) [][]netip.Addr {
		n, tc, rs := meshNet(t)
		var cands []netip.Addr
		for _, r := range rs {
			cands = append(cands, r.Interfaces()...)
		}
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.ConflictKey = func(a netip.Addr) (uint64, bool) {
			r, ok := n.RouterByAddr(a)
			if !ok {
				return 0, false
			}
			return uint64(r.ID), true
		}
		return mustResolve(t, cands, tc, cfg)
	}
	seq := run(1)
	parl := run(8)
	if len(seq) == 0 {
		t.Fatal("sequential run found no alias sets")
	}
	if !reflect.DeepEqual(seq, parl) {
		t.Errorf("parallel alias sets diverge:\nseq  = %v\npar  = %v", seq, parl)
	}
}

func TestVelocityBoundRejectsFastCounter(t *testing.T) {
	ctr1, ctr2 := uint16(0), uint16(30000)
	f := &fakeProber{
		ids:  map[netip.Addr]*uint16{a("10.0.0.1"): &ctr1, a("10.0.0.2"): &ctr2},
		step: map[netip.Addr]uint16{a("10.0.0.1"): 3, a("10.0.0.2"): 3},
		ttl:  map[netip.Addr]uint8{},
	}
	sets := mustResolve(t, []netip.Addr{a("10.0.0.1"), a("10.0.0.2")}, f, DefaultConfig())
	if len(sets) != 0 {
		t.Errorf("independent counters aliased: %v", sets)
	}
}
