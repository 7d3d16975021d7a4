package netsim

import "net/netip"

// Accessors for the external test package, which builds catalogue worlds
// through asgen (an importer of netsim) and so cannot live in package
// netsim itself.

// RefSPF runs the map-based reference Dijkstra from src.
func RefSPF(n *Network, src RouterID) ([]int, [][]RouterID) { return n.refDijkstra(src) }

// NextHops returns the computed ECMP next hops from src toward dst.
func NextHops(n *Network, src, dst RouterID) []RouterID { return n.nexthops[src][dst] }

// Prefixes returns the advertised prefix table.
func Prefixes(n *Network) map[netip.Prefix]RouterID { return n.prefixes }

// Resolve returns the destination record Send resolves for a.
func Resolve(n *Network, a netip.Addr) (owner, router RouterID, host *Host, eligible bool) {
	d := n.resolve(a)
	return d.owner, d.router, d.host, d.eligible
}
