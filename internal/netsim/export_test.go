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
func NextHops(n *Network, src, dst RouterID) []RouterID {
	var out []RouterID
	for _, id := range n.nextHops(src, dst) {
		out = append(out, RouterID(id))
	}
	return out
}

// Prefixes returns the routed prefix table.
func Prefixes(n *Network) map[netip.Prefix]RouterID { return n.prefixes }

// Hosts returns every attached host, in ascending address order.
func Hosts(n *Network) []*Host {
	var out []*Host
	for _, d := range n.addrs {
		if d.host != nil {
			out = append(out, d.host)
		}
	}
	slices.SortFunc(out, func(a, b *Host) int { return a.Addr.Compare(b.Addr) })
	return out
}

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
	var out []uint32
	for l, b := range r.labels {
		if b.kind == labelService {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

// LabelKind is what resolveLabel reports a label to be.
type LabelKind = labelKind

// The label kinds a router's label table binds.
const (
	LabelAdjSID  = labelAdjSID
	LabelLDP     = labelLDP
	LabelService = labelService
)

// ResolveLabel returns the kind and target resolveLabel finds for an
// incoming label at r.
func ResolveLabel(n *Network, r *Router, l uint32) (LabelKind, RouterID) {
	return n.resolveLabel(r, l)
}

// BoundLabels returns every label in r's label table, in ascending order.
func BoundLabels(r *Router) []uint32 {
	out := make([]uint32, 0, len(r.labels))
	for l := range r.labels {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}
