package netsim_test

import (
	"fmt"
	"slices"
	"testing"

	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/mpls"
	"arest/internal/netsim"
)

// keyedLabels restates the label allocation the routers' tables replaced
// as the reference they are checked against: one string-keyed map per
// router, keyed "fec-<loopback>", "adj-<neighbor id>" and "svc-<name>",
// over the draws of a pool seeded as the router's, which skip the labels
// drawn before as the pool's own set of used labels once did. A key
// already bound returns its label without a draw, so a binding is stable
// across re-Computes. It records the tables the keyed allocation filled.
type keyedLabels struct {
	seed  int64
	pools map[netsim.RouterID]*mpls.Pool
	drawn map[netsim.RouterID]map[uint32]bool
	bound map[netsim.RouterID]map[string]uint32

	ldp map[[2]netsim.RouterID]uint32 // (router, egress) -> LDP label
	adj map[[2]netsim.RouterID]uint32 // (router, neighbor) -> adjacency SID
	svc map[netsim.RouterID][]uint32  // router -> service SIDs
}

func newKeyedLabels(n *netsim.Network) *keyedLabels {
	return &keyedLabels{
		seed:  netsim.Seed(n),
		pools: map[netsim.RouterID]*mpls.Pool{},
		drawn: map[netsim.RouterID]map[uint32]bool{},
		bound: map[netsim.RouterID]map[string]uint32{},
		ldp:   map[[2]netsim.RouterID]uint32{},
		adj:   map[[2]netsim.RouterID]uint32{},
		svc:   map[netsim.RouterID][]uint32{},
	}
}

// allocate is the keyed pool's Allocate.
func (k *keyedLabels) allocate(r *netsim.Router, key string) uint32 {
	if k.pools[r.ID] == nil {
		k.pools[r.ID] = mpls.NewPool(mpls.DynamicPool(r.Vendor), k.seed^int64(r.ID)*2654435761)
		k.drawn[r.ID] = map[uint32]bool{}
		k.bound[r.ID] = map[string]uint32{}
	}
	if l, ok := k.bound[r.ID][key]; ok {
		return l
	}
	drawn := k.drawn[r.ID]
	l := k.pools[r.ID].Draw(func(l uint32) bool { return drawn[l] })
	drawn[l] = true
	k.bound[r.ID][key] = l
	return l
}

// service is AllocateServiceSID as the keyed pool ran it.
func (k *keyedLabels) service(r *netsim.Router, name string) {
	k.svc[r.ID] = append(k.svc[r.ID], k.allocate(r, "svc-"+name))
}

// compute restates the adjacency-SID and LDP draws of one Compute, run
// after n's.
func (k *keyedLabels) compute(n *netsim.Network) {
	for _, r := range n.Routers() {
		if !r.SREnabled {
			continue
		}
		nbs := n.Neighbors(r.ID)
		slices.Sort(nbs)
		for seq, nb := range nbs {
			l := r.SRLB.Lo + uint32(seq)
			if r.SRLB.Size() == 0 {
				l = k.allocate(r, fmt.Sprintf("adj-%d", nb))
			}
			k.adj[[2]netsim.RouterID{r.ID, nb}] = l
		}
	}
	for _, r := range n.Routers() {
		if !r.LDPEnabled && !r.SREnabled {
			continue
		}
		if !r.LDPEnabled && !slices.ContainsFunc(n.Neighbors(r.ID), func(id netsim.RouterID) bool {
			o := n.Router(id)
			return o.LDPEnabled && !o.SREnabled
		}) {
			continue
		}
		for _, e := range n.Routers() {
			if e.ID == r.ID || e.ASN != r.ASN || n.Dist(r.ID, e.ID) < 0 {
				continue
			}
			k.ldp[[2]netsim.RouterID{r.ID, e.ID}] = k.allocate(r, "fec-"+e.Loopback.String())
		}
	}
}

// check requires every router's LDP labels, adjacency SIDs and service
// SIDs to equal the reference's, binding for binding. On the incoming
// side, each of those labels must resolve to its own kind and target,
// unless it lies inside the router's SRGB, which resolves first; and the
// router's label table must hold those labels, each once, and no other.
func (k *keyedLabels) check(t *testing.T, name string, n *netsim.Network) {
	t.Helper()
	rs := n.Routers()
	for _, r := range rs {
		var bound []uint32
		resolves := func(l uint32, what string, kind netsim.LabelKind, to netsim.RouterID) {
			t.Helper()
			bound = append(bound, l)
			if r.SREnabled && r.SRGB.Contains(l) {
				return
			}
			if gk, gt := netsim.ResolveLabel(n, r, l); gk != kind || gt != to {
				t.Fatalf("%s: %s resolves its %s label %d to kind %v toward %d, want kind %v toward %d",
					name, r.Name, what, l, gk, gt, kind, to)
			}
		}
		for _, e := range rs {
			pair := [2]netsim.RouterID{r.ID, e.ID}
			want, wantOK := k.ldp[pair]
			got, ok := r.LDPLabel(e.ID)
			if got != want || ok != wantOK {
				t.Fatalf("%s: %s LDPLabel(%s) = %d %v, keyed pool %d %v", name, r.Name, e.Name, got, ok, want, wantOK)
			}
			if ok {
				resolves(got, "LDP", netsim.LabelLDP, e.ID)
			}
			want, wantOK = k.adj[pair]
			got, ok = r.AdjacencySID(e.ID)
			if got != want || ok != wantOK {
				t.Fatalf("%s: %s AdjacencySID(%s) = %d %v, keyed pool %d %v", name, r.Name, e.Name, got, ok, want, wantOK)
			}
			if ok {
				resolves(got, "adjacency", netsim.LabelAdjSID, e.ID)
			}
		}
		want := slices.Clone(k.svc[r.ID])
		slices.Sort(want)
		if got := netsim.ServiceSIDs(r); !slices.Equal(got, want) {
			t.Fatalf("%s: %s service SIDs %v, keyed pool %v", name, r.Name, got, want)
		}
		for _, l := range want {
			resolves(l, "service", netsim.LabelService, r.ID)
		}
		slices.Sort(bound)
		if got := netsim.BoundLabels(r); !slices.Equal(got, bound) {
			t.Fatalf("%s: %s label table holds %v, its bindings are %v", name, r.Name, got, bound)
		}
	}
}

// TestLabelTablesMatchKeyedPool checks the keyless draws and dense router
// tables against the keyed pool on catalogue worlds, as asgen.Build leaves
// them and after each of a series of re-Computes: a router added with no
// link, then linked; a new link between two routers; a service SID drawn
// between Computes; and a link taken down and brought back. The worlds
// are Microsoft (full SR), Deutsche Telekom (SR/LDP interworking with a
// mapping server), NTT Comm. (the most Juniper SR routers, all with
// dynamic adjacency SIDs), Telecom Italia (LDP only) and ESnet (service
// SIDs). The added router is a Cisco on its default blocks, so its
// adjacency SIDs come from the SRLB.
func TestLabelTablesMatchKeyedPool(t *testing.T) {
	cfg := exp.DefaultConfig()
	for _, id := range []int{15, 53, 54, 38, 46} {
		rec, ok := asgen.ByID(id)
		if !ok {
			t.Fatalf("no catalogue record %d", id)
		}
		dep := asgen.DeploymentFor(rec, cfg.Seed)
		dep.Routers = min(dep.Routers, cfg.MaxRouters)
		w := asgen.Build(rec, dep, cfg.NumVPs, cfg.Seed)
		n := w.Net
		ref := newKeyedLabels(n)
		// asgen.Build allocates its service SIDs before its one Compute.
		for _, pe := range w.Edges {
			if w.SRRouter[pe.ID] {
				ref.service(pe, pe.Name)
			}
			if dep.ClassicStackProb > 0 && dep.MPLS {
				ref.service(pe, "vpn-"+pe.Name)
			}
		}
		ref.compute(n)
		ref.check(t, rec.Name, n)

		recompute := func(step string) {
			t.Helper()
			n.Compute()
			ref.compute(n)
			ref.check(t, rec.Name+", "+step, n)
		}
		x := n.AddRouter(netsim.RouterConfig{Name: "x", ASN: rec.ASN, Vendor: mpls.VendorCisco,
			Profile: netsim.DefaultProfile(mpls.VendorCisco), SREnabled: true, LDPEnabled: true, Mode: netsim.ModeSR})
		recompute("router added")
		a, b := w.Routers[0], w.Routers[len(w.Routers)/2]
		n.Connect(x.ID, a.ID, 10)
		n.Connect(x.ID, b.ID, 10)
		recompute("router linked")
		c := w.Routers[len(w.Routers)-1]
		if _, dup := c.InterfaceTo(a.ID); !dup && c.ID != a.ID {
			n.Connect(a.ID, c.ID, 10)
			recompute("link added")
		}
		n.AllocateServiceSID(a)
		ref.service(a, "late")
		recompute("service SID drawn")
		n.SetLinkState(x.ID, a.ID, false)
		n.SetLinkState(x.ID, b.ID, false)
		recompute("router cut off")
		n.SetLinkState(x.ID, a.ID, true)
		n.SetLinkState(x.ID, b.ID, true)
		recompute("router restored")
	}
}
