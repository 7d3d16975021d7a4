// Agg is the bounded-memory core of the Detect stage: every aggregate the
// experiments consume, folded one trace at a time. It replaces "retain
// every path and recompute" with "accumulate per trace and query", so a
// streaming replay holds O(results) state — flag tallies, histograms, and
// one compact row per distinct interface — never the trace set itself.
// The fold tallies straight into the AS's Agg, and publishes its address
// table into the Agg's interface-keyed maps once (stream.go).
package exp

import (
	"net/netip"

	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/fingerprint"
	"arest/internal/mpls"
	"arest/internal/probe"
)

// IfaceAgg is the per-interface row of the fold: everything the
// interface-keyed aggregates (Figs. 10b, 14, 15, Table 3's FN column)
// need, reduced with order-independent operations — Area is a running max,
// the booleans are running ORs, Source/Vendor are constant per address (the
// annotator stamps every occurrence identically).
type IfaceAgg struct {
	Area   core.Area
	Source fingerprint.Source
	Vendor mpls.Vendor
	// Flagged: the interface appeared inside at least one detected segment.
	Flagged bool
	// LabeledTransit: at least one non-terminal occurrence carried a label
	// stack — the precondition for counting it as a false negative.
	LabeledTransit bool
}

// Agg accumulates one AS's analysis. Every field is either a count, a
// histogram, or an address-keyed row reduced with commutative operations,
// so folding the same traces in any partition order and merging yields the
// same value (Merge); the aggregate methods on ASResult are pure queries
// over it. Tallies over a small enum are arrays indexed by it, and
// histograms over a size or depth are slices indexed by it, grown to their
// largest key. The zero value is not ready: use NewAgg, which initializes
// every map non-nil so folded and merged aggregates compare with
// DeepEqual. A new field must be allocated by NewAgg (if a map) and folded
// by Merge; TestAggFoldComplete fails on any field that is not.
type Agg struct {
	// Traces counts every folded trace; PathsInAS counts those whose
	// AS-restricted path was non-empty (the denominator of Fig. 10a).
	Traces    int
	PathsInAS int
	// NumVPs is the vantage-point count (Fig. 17's x axis).
	NumVPs int

	// Flags tallies detected segments per flag (Fig. 8).
	Flags [core.FlagLSO + 1]int
	// AreaTraces counts paths touching each area (Fig. 10a numerators).
	AreaTraces [core.AreaSR + 1]int
	// Patterns tallies interworking chaining patterns (Fig. 11).
	Patterns map[core.Pattern]int
	// CloudLDP/CloudSR are cloud-size histograms from interworking tunnels
	// (Fig. 12): occurrences indexed by size.
	CloudLDP []int
	CloudSR  []int
	// StackStrong/StackOther are LSE stack-depth histograms over labeled
	// hops inside/outside strong segments (Fig. 9), indexed by depth.
	StackStrong []int
	StackOther  []int
	// TunnelTypes tallies raw-trace tunnel visibility classes (Fig. 13a).
	TunnelTypes [probe.TunnelInvisible + 1]int
	// ExplicitPaths counts raw traces showing an explicit tunnel (Fig. 13b).
	ExplicitPaths int
	// Labels is the Fig. 16 label-range histogram, indexed like
	// LabelBuckets.
	Labels [len(LabelBuckets)]int

	// Ifaces holds one reduced row per distinct in-AS interface.
	Ifaces map[netip.Addr]IfaceAgg
	// FirstVP records the smallest VP index at which each raw-trace
	// responder was observed; with NumVPs it reconstructs the Fig. 17
	// accumulation curve without retaining the traces.
	FirstVP map[netip.Addr]int

	// Confusion carries the per-flag TP/FP tallies of Table 3. FN is not a
	// per-segment event; it is derived at query time from Ifaces and the
	// ground-truth set.
	Confusion [core.FlagLSO + 1]eval.Confusion

	// SeqLabels is the set of labels carried by sequence-flagged (CVR/CO)
	// segments — the evidence base of SRGB inference.
	SeqLabels map[uint32]bool
	// SeqSuffix counts sequence-flagged segments whose labels also matched
	// as a suffix (the headline's corroboration rate).
	SeqSuffix int
	// StrongHops/StrongHopsFP count hops inside strong segments and the
	// fingerprinted subset (the headline's fingerprint coverage).
	StrongHops   int
	StrongHopsFP int
}

// NewAgg returns an empty accumulator with every map allocated.
func NewAgg() *Agg {
	return &Agg{
		Patterns:  map[core.Pattern]int{},
		Ifaces:    map[netip.Addr]IfaceAgg{},
		FirstVP:   map[netip.Addr]int{},
		SeqLabels: map[uint32]bool{},
	}
}

// Merge folds o into a. Every reduction is commutative and associative —
// counts and histograms add, FirstVP takes the minimum, interface rows
// max/OR their fields — so any partition of a trace set folds and merges to
// the same aggregate as one sequential fold, which is what lets shards be
// analyzed concurrently and campaigns be summarized across ASes.
// Address-keyed maps assume both sides observed consistent per-address
// facts (true for partitions of one AS's traces; across ASes with disjoint
// address space the union is still exact, and NumVPs takes the maximum).
func (a *Agg) Merge(o *Agg) {
	a.Traces += o.Traces
	a.PathsInAS += o.PathsInAS
	if o.NumVPs > a.NumVPs {
		a.NumVPs = o.NumVPs
	}
	a.ExplicitPaths += o.ExplicitPaths
	a.SeqSuffix += o.SeqSuffix
	a.StrongHops += o.StrongHops
	a.StrongHopsFP += o.StrongHopsFP
	addCounts(a.Flags[:], o.Flags[:])
	addCounts(a.AreaTraces[:], o.AreaTraces[:])
	addCounts(a.TunnelTypes[:], o.TunnelTypes[:])
	addCounts(a.Labels[:], o.Labels[:])
	a.CloudLDP = addCounts(a.CloudLDP, o.CloudLDP)
	a.CloudSR = addCounts(a.CloudSR, o.CloudSR)
	a.StackStrong = addCounts(a.StackStrong, o.StackStrong)
	a.StackOther = addCounts(a.StackOther, o.StackOther)
	for f := range o.Confusion {
		a.Confusion[f].Add(o.Confusion[f])
	}
	for p, n := range o.Patterns {
		a.Patterns[p] += n
	}
	for addr, v := range o.FirstVP {
		if cur, ok := a.FirstVP[addr]; !ok || v < cur {
			a.FirstVP[addr] = v
		}
	}
	for addr, oi := range o.Ifaces {
		ifc, ok := a.Ifaces[addr]
		if !ok {
			ifc = oi
		} else {
			if oi.Area > ifc.Area {
				ifc.Area = oi.Area
			}
			ifc.Flagged = ifc.Flagged || oi.Flagged
			ifc.LabeledTransit = ifc.LabeledTransit || oi.LabeledTransit
		}
		a.Ifaces[addr] = ifc
	}
	for l := range o.SeqLabels {
		a.SeqLabels[l] = true
	}
}

// addCounts adds o into h index by index, growing h to o's length, and
// returns h. A slice of an array is as long as o's, so it adds in place.
func addCounts(h, o []int) []int {
	if len(o) > len(h) {
		h = append(h, make([]int, len(o)-len(h))...)
	}
	for k, n := range o {
		h[k] += n
	}
	return h
}
