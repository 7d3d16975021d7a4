// Agg is the bounded-memory core of the Detect stage: every aggregate the
// experiments consume, folded one trace at a time. It replaces "retain
// every path and recompute" with "accumulate per trace and query", so a
// streaming replay holds O(results) state — flag tallies, histograms, and
// one compact row per distinct interface — never the trace set itself.
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
// over it. The zero value is not ready: use NewAgg, which initializes every
// map non-nil so folded and merged aggregates compare with DeepEqual. A new
// field must be allocated by NewAgg and folded by Merge;
// TestAggFoldComplete fails on any field that is not.
type Agg struct {
	// Traces counts every folded trace; PathsInAS counts those whose
	// AS-restricted path was non-empty (the denominator of Fig. 10a).
	Traces    int
	PathsInAS int
	// NumVPs is the vantage-point count (Fig. 17's x axis).
	NumVPs int

	// Flags tallies detected segments per flag (Fig. 8).
	Flags map[core.Flag]int
	// AreaTraces counts paths touching each area (Fig. 10a numerators).
	AreaTraces map[core.Area]int
	// Patterns tallies interworking chaining patterns (Fig. 11).
	Patterns map[core.Pattern]int
	// CloudLDP/CloudSR are cloud-size histograms from interworking tunnels
	// (Fig. 12): size -> occurrences.
	CloudLDP map[int]int
	CloudSR  map[int]int
	// StackStrong/StackOther are LSE stack-depth histograms over labeled
	// hops inside/outside strong segments (Fig. 9).
	StackStrong map[int]int
	StackOther  map[int]int
	// TunnelTypes tallies raw-trace tunnel visibility classes (Fig. 13a).
	TunnelTypes map[probe.TunnelType]int
	// ExplicitPaths counts raw traces showing an explicit tunnel (Fig. 13b).
	ExplicitPaths int
	// Labels is the Fig. 16 label-range histogram, keyed by bucket name.
	Labels map[string]int

	// Ifaces holds one reduced row per distinct in-AS interface.
	Ifaces map[netip.Addr]IfaceAgg
	// FirstVP records the smallest VP index at which each raw-trace
	// responder was observed; with NumVPs it reconstructs the Fig. 17
	// accumulation curve without retaining the traces.
	FirstVP map[netip.Addr]int

	// Confusion carries the per-flag TP/FP tallies of Table 3. FN is not a
	// per-segment event; it is derived at query time from Ifaces and the
	// ground-truth set.
	Confusion map[core.Flag]eval.Confusion

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
		Flags:       map[core.Flag]int{},
		AreaTraces:  map[core.Area]int{},
		Patterns:    map[core.Pattern]int{},
		CloudLDP:    map[int]int{},
		CloudSR:     map[int]int{},
		StackStrong: map[int]int{},
		StackOther:  map[int]int{},
		TunnelTypes: map[probe.TunnelType]int{},
		Labels:      map[string]int{},
		Ifaces:      map[netip.Addr]IfaceAgg{},
		FirstVP:     map[netip.Addr]int{},
		Confusion:   map[core.Flag]eval.Confusion{},
		SeqLabels:   map[uint32]bool{},
	}
}

// traceFacts are the per-trace classifications addTrace folds. They are
// pure functions of one raw trace and its analysis, so the streaming fold
// derives them inside its concurrent analyze fan-out, leaving only the
// accumulation itself on the fold's goroutine.
type traceFacts struct {
	tunnels  []probe.Tunnel        // raw-trace tunnel visibility classes
	analyses []core.TunnelAnalysis // interworking analysis; nil without a result
}

func newTraceFacts(tr *probe.Trace, res *core.Result) traceFacts {
	f := traceFacts{tunnels: probe.ClassifyTunnels(tr)}
	if res != nil {
		f.analyses = res.Tunnels()
	}
	return f
}

// addTrace folds one trace: the raw trace always contributes (tunnel
// classes, responder accumulation); res is the analysis of its AS-restricted
// path and is nil when the restriction was empty; facts is
// newTraceFacts(tr, res). sr is the archived ground-truth set, sealed
// before the first trace arrives.
func (a *Agg) addTrace(vpIdx int, tr *probe.Trace, res *core.Result, facts traceFacts, sr map[netip.Addr]bool) {
	a.Traces++
	explicit := false
	for _, t := range facts.tunnels {
		a.TunnelTypes[t.Type]++
		explicit = explicit || t.Type == probe.TunnelExplicit
	}
	if explicit {
		a.ExplicitPaths++
	}
	for i := range tr.Hops {
		if !tr.Hops[i].Responded() {
			continue
		}
		addr := tr.Hops[i].Addr
		if v, ok := a.FirstVP[addr]; !ok || vpIdx < v {
			a.FirstVP[addr] = vpIdx
		}
	}
	if res == nil {
		return
	}
	a.PathsInAS++

	hops := res.Path.Hops
	inStrong := make([]bool, len(hops))
	flagged := make([]bool, len(hops))
	for _, s := range res.Segments {
		a.Flags[s.Flag]++
		if s.Flag == core.FlagCVR || s.Flag == core.FlagCO {
			a.SeqLabels[s.Label] = true
			if s.SuffixMatch {
				a.SeqSuffix++
			}
		}
		allSR := true
		for k := s.Start; k <= s.End; k++ {
			flagged[k] = true
			if !sr[hops[k].Addr] {
				allSR = false
			}
			if s.Flag.Strong() {
				inStrong[k] = true
				a.StrongHops++
				if hops[k].Fingerprinted() {
					a.StrongHopsFP++
				}
			}
		}
		c := a.Confusion[s.Flag]
		if allSR {
			c.TP++
		} else {
			c.FP++
		}
		a.Confusion[s.Flag] = c
	}

	for _, area := range []core.Area{core.AreaSR, core.AreaMPLS, core.AreaIP} {
		if res.HitsArea(area) {
			a.AreaTraces[area]++
		}
	}

	for i := range hops {
		h := &hops[i]
		if h.HasStack() {
			if inStrong[i] {
				a.StackStrong[h.Stack.Depth()]++
			} else {
				a.StackOther[h.Stack.Depth()]++
			}
		}
		for _, e := range h.Stack {
			for _, b := range LabelBuckets {
				if b.R.Contains(e.Label) {
					a.Labels[b.Name]++
					break
				}
			}
		}
		ifc, ok := a.Ifaces[h.Addr]
		if !ok {
			ifc.Source = h.Source
			ifc.Vendor = h.Vendor
		}
		if area := res.Areas[i]; area > ifc.Area {
			ifc.Area = area
		}
		if flagged[i] {
			ifc.Flagged = true
		}
		if h.HasStack() && !h.Terminal {
			ifc.LabeledTransit = true
		}
		a.Ifaces[h.Addr] = ifc
	}

	for _, t := range facts.analyses {
		a.Patterns[t.Pattern]++
		if !t.Interworking() {
			continue
		}
		for _, cl := range t.Clouds {
			if cl.Kind == core.CloudSR {
				a.CloudSR[cl.Len]++
			} else {
				a.CloudLDP[cl.Len]++
			}
		}
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
	for f, n := range o.Flags {
		a.Flags[f] += n
	}
	for k, n := range o.AreaTraces {
		a.AreaTraces[k] += n
	}
	for p, n := range o.Patterns {
		a.Patterns[p] += n
	}
	for k, n := range o.CloudLDP {
		a.CloudLDP[k] += n
	}
	for k, n := range o.CloudSR {
		a.CloudSR[k] += n
	}
	for k, n := range o.StackStrong {
		a.StackStrong[k] += n
	}
	for k, n := range o.StackOther {
		a.StackOther[k] += n
	}
	for t, n := range o.TunnelTypes {
		a.TunnelTypes[t] += n
	}
	for b, n := range o.Labels {
		a.Labels[b] += n
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
	for f, oc := range o.Confusion {
		c := a.Confusion[f]
		c.Add(oc)
		a.Confusion[f] = c
	}
	for l := range o.SeqLabels {
		a.SeqLabels[l] = true
	}
}
