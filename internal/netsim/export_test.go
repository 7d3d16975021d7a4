package netsim

import (
	"net/netip"
	"slices"
)

// Accessors for the external test package, which builds catalogue worlds
// through asgen (an importer of netsim) and so cannot live in package
// netsim itself.

// RefSPF runs the map-based reference Dijkstra from src.
func RefSPF(n *Network, src RouterID) ([]int, [][]RouterID) { return n.refDijkstra(src) }

// NextHops returns the computed ECMP next hops from src toward dst.
func NextHops(n *Network, src, dst RouterID) []RouterID { return n.nextHops(src, dst) }

// Prefixes returns the advertised prefix table.
func Prefixes(n *Network) map[netip.Prefix]RouterID { return n.prefixes }

// Resolve returns the destination record Send resolves for a.
func Resolve(n *Network, a netip.Addr) (owner, router RouterID, host *Host, eligible bool) {
	d := n.resolve(a)
	return d.owner, d.router, d.host, d.eligible
}

// Seed returns the seed the network derives its label pools from.
func Seed(n *Network) int64 { return n.seed }

// ServiceSIDs returns the service SIDs terminating at r, in ascending
// order.
func ServiceSIDs(r *Router) []uint32 {
	out := make([]uint32, 0, len(r.svcSIDs))
	for l := range r.svcSIDs {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}
