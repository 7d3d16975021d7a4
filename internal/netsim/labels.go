package netsim

import "arest/internal/mpls"

// srLabelAt computes the MPLS label that router "at" understands as the
// node SID of egress e: at's SRGB base plus e's index. ok is false when at
// is not SR-capable or e has no node SID.
func (n *Network) srLabelAt(at *Router, e *Router) (uint32, bool) {
	if !at.SREnabled || e.nodeIndex < 0 {
		return 0, false
	}
	l := at.SRGB.Lo + uint32(e.nodeIndex)
	if l > at.SRGB.Hi {
		return 0, false
	}
	return l, true
}

// labelKind is what an incoming label means at the router reading it.
type labelKind uint8

const (
	labelUnknown      labelKind = iota
	labelNodeSID                // FEC = egress router
	labelAdjSID                 // forward out a specific link
	labelLDP                    // FEC = egress router
	labelService                // service SID terminating here: pop and continue
	labelExplicitNull           // reserved label 0: pop, continue with IP
	labelELI                    // entropy label indicator (RFC 6790): pop it and the EL
)

// resolveLabel interprets an incoming label at router r and returns its
// kind and target: the egress router of a node SID or LDP label, the
// neighbor of an adjacency SID, r itself otherwise. The reserved labels
// come first, then r's own SRGB (node SIDs), then one lookup in r's label
// table. A label inside the SRGB resolves as a node SID even when the
// table binds it too, which only an operator-customized SRGB overlapping
// the dynamic pool allows.
func (n *Network) resolveLabel(r *Router, label uint32) (labelKind, RouterID) {
	switch label {
	case mpls.LabelIPv4ExplicitNull:
		return labelExplicitNull, r.ID
	case mpls.LabelELI:
		return labelELI, r.ID
	}
	if r.SREnabled && r.SRGB.Contains(label) {
		if i := int(label - r.SRGB.Lo); i < len(n.sidOwner) {
			return labelNodeSID, n.sidOwner[i]
		}
		return labelUnknown, 0
	}
	if b, ok := r.labels[label]; ok {
		return b.kind, RouterID(b.to)
	}
	return labelUnknown, 0
}

// AllocateServiceSID reserves a fresh service SID at router r (service
// SIDs ride at the bottom of SR stacks and are consumed by the terminating
// node — the "unshrinking stack" behaviour of advanced SR deployments).
// The label is drawn from the router's dynamic pool so it collides with
// nothing.
func (n *Network) AllocateServiceSID(r *Router) uint32 {
	l := r.pool.Draw(r.bound)
	n.bind(r, l, labelService, r.ID)
	return l
}

// SegmentList is an explicit SR path: a sequence of segments the ingress
// encodes as a label stack.
type SegmentList []Segment

// Segment is one instruction: either a node segment (shortest path to Node)
// or an adjacency segment (cross the link From->To using From's adjacency
// SID). Service marks a service SID, which rides at the bottom of the stack
// until the terminating node.
type Segment struct {
	Node    RouterID
	From    RouterID
	To      RouterID
	Adj     bool
	Service bool
	// ServiceLabel is the label value for Service segments.
	ServiceLabel uint32
}

// buildSRStack encodes a segment list into a label stack as the SR source
// would: each label is expressed in the SRGB of the router where it becomes
// active. atFirst is the first router that will read the top label (the
// ingress's next hop, or the ingress itself when it processes its own
// push — we model the push as interpreted by the ingress's next hop).
// The stack is appended onto dst (pass dst[:0] to reuse a scratch buffer);
// on failure the partially appended contents are discarded by the caller.
func (n *Network) buildSRStack(dst mpls.Stack, ingress *Router, segs SegmentList, flow uint64, ttl uint8) (mpls.Stack, bool) {
	stack := dst
	cur := ingress // router at which the *next* segment becomes active
	for i, s := range segs {
		switch {
		case s.Service:
			stack = append(stack, mpls.LSE{Label: s.ServiceLabel, TTL: ttl})
		case s.Adj:
			from := n.routers[s.From]
			l, ok := from.AdjacencySID(s.To)
			if !ok {
				return nil, false
			}
			stack = append(stack, mpls.LSE{Label: l, TTL: ttl})
			cur = n.routers[s.To]
		default:
			// Node segment: the top label of the stack is read by the
			// ingress's next hop; deeper labels are read at the router
			// where they become active (the endpoint of the previous
			// segment).
			reader := cur
			if i == 0 {
				nh, ok := n.NextHop(ingress.ID, s.Node, flow)
				if !ok {
					return nil, false
				}
				reader = n.routers[nh]
			}
			l, ok := n.srLabelAt(reader, n.routers[s.Node])
			if !ok {
				return nil, false
			}
			stack = append(stack, mpls.LSE{Label: l, TTL: ttl})
			cur = n.routers[s.Node]
		}
	}
	return stack, len(stack) > 0
}
