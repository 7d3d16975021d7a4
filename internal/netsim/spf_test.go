package netsim_test

import (
	"testing"

	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/mpls"
	"arest/internal/netsim"
)

// catalogueWorlds builds every catalogue AS at the default campaign seed,
// vantage-point count and router cap.
func catalogueWorlds(t *testing.T) []*asgen.World {
	t.Helper()
	cfg := exp.DefaultConfig()
	worlds := make([]*asgen.World, 0, len(asgen.Catalogue))
	for _, rec := range asgen.Catalogue {
		dep := asgen.DeploymentFor(rec, cfg.Seed)
		if cfg.MaxRouters > 0 && dep.Routers > cfg.MaxRouters {
			dep.Routers = cfg.MaxRouters
		}
		worlds = append(worlds, asgen.Build(rec, dep, cfg.NumVPs, cfg.Seed))
	}
	return worlds
}

// checkSPF requires Dist and every next-hop list of a computed network to
// equal the map-based reference Dijkstra's, element for element.
func checkSPF(t *testing.T, name string, n *netsim.Network) {
	t.Helper()
	for _, src := range n.Routers() {
		dist, first := netsim.RefSPF(n, src.ID)
		for _, dst := range n.Routers() {
			if got := n.Dist(src.ID, dst.ID); got != dist[dst.ID] {
				t.Fatalf("%s: Dist(%d, %d) = %d, reference %d", name, src.ID, dst.ID, got, dist[dst.ID])
			}
			got, want := netsim.NextHops(n, src.ID, dst.ID), first[dst.ID]
			if len(got) != len(want) {
				t.Fatalf("%s: next hops %d→%d = %v, reference %v", name, src.ID, dst.ID, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: next hops %d→%d = %v, reference %v", name, src.ID, dst.ID, got, want)
				}
			}
		}
	}
}

// TestSPFMatchesReference checks the bitset SPF against the reference on
// every catalogue world, as built and again after one link goes down and
// the control planes reconverge.
func TestSPFMatchesReference(t *testing.T) {
	for _, w := range catalogueWorlds(t) {
		checkSPF(t, w.Record.Name, w.Net)
		r := w.Routers[len(w.Routers)/2]
		nb := w.Net.Neighbors(r.ID)[0]
		w.Net.SetLinkState(r.ID, nb, false)
		w.Net.Compute()
		checkSPF(t, w.Record.Name+" (link down)", w.Net)
	}
}

// spfGraph decodes a fuzz input into a computed network: the first byte
// picks 1–40 routers, and each following byte triple (a, b, c) adds the
// link a–b with IGP weight 0–30, taken down when c's high bit is set.
// Self-links and duplicate links are skipped.
func spfGraph(b []byte) *netsim.Network {
	n := netsim.New(1)
	nr := 1
	if len(b) > 0 {
		nr += int(b[0]) % 40
		b = b[1:]
	}
	prof := netsim.DefaultProfile(mpls.VendorLinux)
	for i := 0; i < nr; i++ {
		n.AddRouter(netsim.RouterConfig{ASN: 1, Vendor: mpls.VendorLinux, Profile: prof})
	}
	const maxLinks = 200
	for k := 0; k+2 < len(b) && k < 3*maxLinks; k += 3 {
		x, y := netsim.RouterID(int(b[k])%nr), netsim.RouterID(int(b[k+1])%nr)
		if x == y {
			continue
		}
		if _, dup := n.Router(x).InterfaceTo(y); dup {
			continue
		}
		n.Connect(x, y, int(b[k+2]&0x7f)%31)
		if b[k+2]&0x80 != 0 {
			n.SetLinkState(x, y, false)
		}
	}
	n.Compute()
	return n
}

// FuzzSPF requires the bitset SPF to agree with the reference on arbitrary
// small graphs, zero weights and down links included.
func FuzzSPF(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 1, 10, 1, 2, 10, 2, 3, 10, 0, 3, 20})                      // square with a long side
	f.Add([]byte{5, 0, 1, 0, 1, 2, 0, 0, 2, 0, 2, 3, 5, 3, 4, 0})                 // zero-weight triangle
	f.Add([]byte{6, 0, 1, 10, 0, 2, 10, 1, 3, 10, 2, 3, 10, 3, 4, 138, 4, 5, 10}) // ECMP diamond, one link down
	f.Add([]byte{39, 0, 1, 1, 1, 2, 1, 2, 0, 1, 7, 8, 30, 20, 38, 200})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkSPF(t, "fuzz", spfGraph(b))
	})
}
