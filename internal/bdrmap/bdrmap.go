// Package bdrmap annotates observed interface addresses with the AS that
// owns the router, in the spirit of bdrmapIT. The inference combines three
// signals, exactly as the paper's pipeline does:
//
//  1. a first-pass longest-prefix-match against BGP origins,
//  2. alias sets (MIDAR/APPLE) that let a router's interfaces vote on a
//     common owner — resolving the classic far-side problem where the
//     entry interface of AS B on an A–B link is numbered from A's space,
//  3. a successor heuristic for unaliased border addresses.
package bdrmap

import (
	"net/netip"
	"sort"

	"arest/internal/probe"
)

// Origins resolves an address to a BGP origin ASN (longest prefix match);
// anaximander.RIB.OriginOf satisfies it.
type Origins interface {
	OriginOf(a netip.Addr) (int, bool)
}

// Annotation is the inferred owner of every observed interface address.
type Annotation map[netip.Addr]int

// Annotate runs the inference over the observed traces.
func Annotate(traces []*probe.Trace, rib Origins, aliases [][]netip.Addr) Annotation {
	ann := make(Annotation)

	// Pass 1: prefix-origin annotation of every observed address. The
	// pristine first-pass map is kept separately: the successor heuristic
	// must reason about prefix origins, not corrected ownership, or the
	// true egress border of the upstream AS flips along with the far side.
	prefixAnn := make(Annotation)
	for _, tr := range traces {
		for i := range tr.Hops {
			h := &tr.Hops[i]
			if !h.Responded() {
				continue
			}
			if _, done := ann[h.Addr]; done {
				continue
			}
			if asn, ok := rib.OriginOf(h.Addr); ok {
				ann[h.Addr] = asn
				prefixAnn[h.Addr] = asn
			}
		}
	}

	// Pass 2: alias correction. All interfaces of one router belong to one
	// AS; the majority annotation wins and is applied to every member. Only
	// members of a set whose vote produced a winner count as aliased: a tie
	// decided nothing, so it must not shield them from pass 3.
	aliased := map[netip.Addr]bool{}
	for _, set := range aliases {
		votes := map[int]int{}
		for _, a := range set {
			if asn, ok := ann[a]; ok {
				votes[asn]++
			}
		}
		if winner, ok := majority(votes); ok {
			for _, a := range set {
				ann[a] = winner
				aliased[a] = true
			}
		}
	}

	// Pass 3: successor heuristic for far-side interfaces no alias vote
	// placed. An address always followed by hops of a single different AS
	// — and never by its own prefix-AS — is the entry interface of that
	// next AS, numbered from the neighbor's space.
	succ := successorASes(traces, prefixAnn)
	for addr := range ann {
		if aliased[addr] {
			continue // alias vote is stronger
		}
		own, hasPrefix := prefixAnn[addr]
		if !hasPrefix {
			continue
		}
		sa := succ[addr]
		if len(sa) != 1 {
			continue
		}
		for next := range sa {
			if next != own && next != 0 {
				ann[addr] = next
			}
		}
	}
	return ann
}

// successorASes maps each address to the set of ASes annotated on its
// immediate successors across all traces.
func successorASes(traces []*probe.Trace, ann Annotation) map[netip.Addr]map[int]bool {
	out := make(map[netip.Addr]map[int]bool)
	for _, tr := range traces {
		var prev netip.Addr
		for i := range tr.Hops {
			h := &tr.Hops[i]
			if !h.Responded() {
				prev = netip.Addr{}
				continue
			}
			if prev.IsValid() {
				if asn, ok := ann[h.Addr]; ok {
					m := out[prev]
					if m == nil {
						m = make(map[int]bool)
						out[prev] = m
					}
					m[asn] = true
				}
			}
			prev = h.Addr
		}
	}
	return out
}

func majority(votes map[int]int) (int, bool) {
	type kv struct {
		asn, n int
	}
	var all []kv
	for a, n := range votes {
		all = append(all, kv{a, n})
	}
	if len(all) == 0 {
		return 0, false
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].asn < all[j].asn
	})
	if len(all) > 1 && all[0].n == all[1].n {
		return 0, false // tie: keep first-pass annotations
	}
	return all[0].asn, true
}

// AsFunc adapts the annotation to the func(netip.Addr) int shape that
// core.BuildPath consumes.
func (a Annotation) AsFunc() func(netip.Addr) int {
	return func(addr netip.Addr) int { return a[addr] }
}
