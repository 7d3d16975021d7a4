package exp

import (
	"net/netip"
	"reflect"
	"testing"

	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/fingerprint"
	"arest/internal/mpls"
	"arest/internal/probe"
)

// The fixture below is small enough to fold by hand: two traces, six
// interfaces, three segments. Every expected value in these tests is
// computed on paper from the fixture, so they pin the aggregate queries to
// the paper's definitions independently of the detector and the simulator.
//
// Topology (a1..a6, ground-truth SR routers: a1, a2, a5):
//
//	trace 1 (VP 0): a1[16005] -> a2[16005,1000] -> a3[30005] -> a4
//	    segments: CO over hops 0-1 (suffix-matched), LSO at hop 2
//	trace 2 (VP 1): a2 -> a5[17005] -> a6[900001](terminal)
//	    segments: none — a5 is a labeled SR transit the detector missed
var (
	aggA1 = netip.MustParseAddr("10.9.0.1")
	aggA2 = netip.MustParseAddr("10.9.0.2")
	aggA3 = netip.MustParseAddr("10.9.0.3")
	aggA4 = netip.MustParseAddr("10.9.0.4")
	aggA5 = netip.MustParseAddr("10.9.0.5")
	aggA6 = netip.MustParseAddr("10.9.0.6")
)

func aggSRSet() map[netip.Addr]bool {
	return map[netip.Addr]bool{aggA1: true, aggA2: true, aggA5: true}
}

func rawTrace(vp byte, addrs ...netip.Addr) *probe.Trace {
	tr := &probe.Trace{
		VP:  netip.AddrFrom4([4]byte{192, 0, 2, vp}),
		Dst: addrs[len(addrs)-1],
	}
	for i, a := range addrs {
		tr.Hops = append(tr.Hops, probe.Hop{TTL: i + 1, Addr: a})
	}
	return tr
}

func fixtureTrace1() (*probe.Trace, *core.Result) {
	tr := rawTrace(1, aggA1, aggA2, aggA3, aggA4)
	res := &core.Result{
		Path: &core.Path{
			VP:  tr.VP,
			Dst: tr.Dst,
			Hops: []core.Hop{
				{Addr: aggA1, Stack: mpls.Stack{{Label: 16005, S: true}},
					Vendor: mpls.VendorCisco, Source: fingerprint.SourceSNMP},
				{Addr: aggA2, Stack: mpls.Stack{{Label: 16005}, {Label: 1000, S: true}}},
				{Addr: aggA3, Stack: mpls.Stack{{Label: 30005, S: true}}},
				{Addr: aggA4},
			},
		},
		Segments: []core.Segment{
			{Start: 0, End: 1, Flag: core.FlagCO, Label: 16005, SuffixMatch: true},
			{Start: 2, End: 2, Flag: core.FlagLSO, Label: 30005},
		},
		Areas: []core.Area{core.AreaSR, core.AreaSR, core.AreaMPLS, core.AreaIP},
	}
	return tr, res
}

func fixtureTrace2() (*probe.Trace, *core.Result) {
	tr := rawTrace(2, aggA2, aggA5, aggA6)
	res := &core.Result{
		Path: &core.Path{
			VP:  tr.VP,
			Dst: tr.Dst,
			Hops: []core.Hop{
				{Addr: aggA2},
				{Addr: aggA5, Stack: mpls.Stack{{Label: 17005, S: true}}},
				{Addr: aggA6, Stack: mpls.Stack{{Label: 900001, S: true}}, Terminal: true},
			},
		},
		Areas: []core.Area{core.AreaIP, core.AreaMPLS, core.AreaMPLS},
	}
	return tr, res
}

// newTraceFacts derives one trace's facts through the allocating API.
func newTraceFacts(tr *probe.Trace, res *core.Result) traceFacts {
	f := traceFacts{tunnels: probe.ClassifyTunnels(tr)}
	if res != nil {
		f.analyses = res.Tunnels()
	}
	return f
}

// fixtureResult folds the two fixture traces into a queryable ASResult.
func fixtureResult() *ASResult {
	agg := NewAgg()
	agg.NumVPs = 2
	sr := aggSRSet()
	t1, r1 := fixtureTrace1()
	t2, r2 := fixtureTrace2()
	agg.addTrace(0, t1, r1, newTraceFacts(t1, r1), sr)
	agg.addTrace(1, t2, r2, newTraceFacts(t2, r2), sr)
	return &ASResult{Agg: agg, SREnabled: sr}
}

func TestAggFixtureFlagShares(t *testing.T) {
	r := fixtureResult()
	if want := [core.FlagLSO + 1]int{core.FlagCO: 1, core.FlagLSO: 1}; r.Agg.Flags != want {
		t.Fatalf("Flags = %v, want %v", r.Agg.Flags, want)
	}
	shares := r.FlagShares()
	if shares[core.FlagCO] != 0.5 || shares[core.FlagLSO] != 0.5 {
		t.Errorf("FlagShares = %v, want 0.5/0.5", shares)
	}
	if !r.HasStrongSR() {
		t.Error("HasStrongSR = false with a CO segment present")
	}
}

func TestAggFixtureCloudSizes(t *testing.T) {
	r := fixtureResult()
	// Trace 1's tunnel spans hops 0-2; the CO flag covers hops 0-1 (an SR
	// cloud of 2) and the LSO hop stays LDP (a cloud of 1): sr-ldp
	// interworking. Trace 2's only non-terminal labeled hop is a lone LDP
	// cloud — full-ldp, not interworking, so it adds no cloud sizes. The
	// histograms are indexed by size.
	ldp, sr := r.Agg.CloudLDP, r.Agg.CloudSR
	if !reflect.DeepEqual(ldp, []int{0, 1}) || !reflect.DeepEqual(sr, []int{0, 0, 1}) {
		t.Errorf("cloud sizes = ldp %v, sr %v; want ldp [0 1], sr [0 0 1]", ldp, sr)
	}
	want := map[core.Pattern]int{core.PatternSRLDP: 1, core.PatternFullLDP: 1}
	if !reflect.DeepEqual(r.Agg.Patterns, want) {
		t.Errorf("Patterns = %v, want %v", r.Agg.Patterns, want)
	}
}

func TestAggFixtureStackDepthDist(t *testing.T) {
	r := fixtureResult()
	// Strong hops: a1 (depth 1) and a2 (depth 2) under the CO flag. The
	// histograms are indexed by depth.
	if want := []int{0, 1, 1}; !reflect.DeepEqual(r.Agg.StackStrong, want) {
		t.Errorf("StackStrong = %v, want %v", r.Agg.StackStrong, want)
	}
	// Other labeled hops: the LSO hop a3, transit a5, terminal a6 — all
	// single-label.
	if want := []int{0, 3}; !reflect.DeepEqual(r.Agg.StackOther, want) {
		t.Errorf("StackOther = %v, want %v", r.Agg.StackOther, want)
	}
}

func TestAggFixtureLabelRangeHist(t *testing.T) {
	r := fixtureResult()
	want := [len(LabelBuckets)]int{
		1, // 0-15999: a2's bottom-of-stack 1000
		3, // 16000-23999: 16005 twice, 17005 once
		1, // 24000-47999: 30005
		0, 0, 0,
		1, // 900000-1048575: 900001 (terminal hops still expose labels)
	}
	if r.Agg.Labels != want {
		t.Errorf("Labels = %v, want %v", r.Agg.Labels, want)
	}
}

func TestAggFixtureVPAccumulation(t *testing.T) {
	r := fixtureResult()
	// VP 0 first observes a1..a4 (4 responders); VP 1 adds a5 and a6 —
	// a2 repeats and must not count twice.
	if got := r.VPAccumulation(); !reflect.DeepEqual(got, []int{4, 6}) {
		t.Errorf("VPAccumulation = %v, want [4 6]", got)
	}
	if got := r.DistinctIPs(); got != 6 {
		t.Errorf("DistinctIPs = %d, want 6", got)
	}
	counts := r.AreaInterfaceCounts()
	// a2 is SR in trace 1 and IP in trace 2: the max wins.
	want := [core.AreaSR + 1]int{core.AreaSR: 2, core.AreaMPLS: 3, core.AreaIP: 1}
	if counts != want {
		t.Errorf("AreaInterfaceCounts = %v, want %v", counts, want)
	}
}

func TestAggFixtureGroundTruth(t *testing.T) {
	r := fixtureResult()
	got := r.GroundTruth()
	want := [core.FlagLSO + 1]eval.Confusion{
		// The CO segment covers a1 and a2, both ground-truth SR: a TP. The
		// missed labeled SR transit a5 is the CO row's FN. a6 is labeled
		// but terminal, and a3 is labeled but not SR: neither is an FN.
		core.FlagCO: {TP: 1, FN: 1},
		// The LSO segment covers only a3, which is not SR-enabled: an FP.
		core.FlagLSO: {FP: 1},
	}
	if got != want {
		t.Errorf("GroundTruth = %+v, want %+v", got, want)
	}
}

func TestAggFixtureHeadlineTallies(t *testing.T) {
	r := fixtureResult()
	a := r.Agg
	if a.SeqSuffix != 1 {
		t.Errorf("SeqSuffix = %d, want 1 (the CO segment suffix-matched)", a.SeqSuffix)
	}
	if want := map[uint32]bool{16005: true}; !reflect.DeepEqual(a.SeqLabels, want) {
		t.Errorf("SeqLabels = %v, want %v", a.SeqLabels, want)
	}
	if a.StrongHops != 2 || a.StrongHopsFP != 1 {
		t.Errorf("StrongHops/FP = %d/%d, want 2/1 (only a1 is fingerprinted)", a.StrongHops, a.StrongHopsFP)
	}
	if a.PathsInAS != 2 || a.Traces != 2 {
		t.Errorf("Traces/PathsInAS = %d/%d, want 2/2", a.Traces, a.PathsInAS)
	}
	if got := r.VendorCounts(); !reflect.DeepEqual(got, map[mpls.Vendor]int{mpls.VendorCisco: 1}) {
		t.Errorf("VendorCounts = %v, want cisco:1", got)
	}
	shares := r.AreaTraceShares()
	// Trace 1 touches SR, MPLS and IP; trace 2 touches MPLS and IP.
	want := [core.AreaSR + 1]float64{core.AreaSR: 0.5, core.AreaMPLS: 1, core.AreaIP: 1}
	if shares != want {
		t.Errorf("AreaTraceShares = %v, want %v", shares, want)
	}
}

// TestAggFixtureMerge folds the two fixture traces into separate
// accumulators and checks that merging reproduces the sequential fold —
// the hand-checkable instance of the merge law.
func TestAggFixtureMerge(t *testing.T) {
	sr := aggSRSet()
	whole := fixtureResult().Agg

	t1, r1 := fixtureTrace1()
	t2, r2 := fixtureTrace2()
	a := NewAgg()
	a.NumVPs = 2
	a.addTrace(0, t1, r1, newTraceFacts(t1, r1), sr)
	b := NewAgg()
	b.NumVPs = 2
	b.addTrace(1, t2, r2, newTraceFacts(t2, r2), sr)

	merged := NewAgg()
	merged.Merge(b)
	merged.Merge(a)
	if !reflect.DeepEqual(merged, whole) {
		t.Errorf("merged fixture aggregate != sequential fold:\nmerged %+v\nwhole  %+v", merged, whole)
	}
}
