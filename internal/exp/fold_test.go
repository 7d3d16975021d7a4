package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"slices"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/bdrmap"
	"arest/internal/core"
	"arest/internal/fingerprint"
	"arest/internal/par"
	"arest/internal/probe"
	"arest/internal/testrace"
)

// addTrace folds one trace into a by direct updates of its fields, keyed
// by address where the fold goes through its address table: the raw trace
// always contributes (tunnel classes, responder accumulation); res is the
// analysis of its AS-restricted path and is nil when the restriction was
// empty; facts holds probe.ClassifyTunnels(tr) and, with a result,
// res.Tunnels(). sr is the archived ground-truth set. It is the per-trace
// reference the fold's address table and batch storage are held to.
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
			if !sr[hops[k].Addr] {
				allSR = false
			}
			if s.Flag.Strong() {
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
		if slices.Contains(res.Areas, area) {
			a.AreaTraces[area]++
		}
	}

	for i := range hops {
		h := &hops[i]
		flagged, inStrong := segmentsAt(res.Segments, i)
		if h.HasStack() {
			if inStrong {
				a.StackStrong = count(a.StackStrong, h.Stack.Depth())
			} else {
				a.StackOther = count(a.StackOther, h.Stack.Depth())
			}
		}
		for _, e := range h.Stack {
			for b := range LabelBuckets {
				if LabelBuckets[b].R.Contains(e.Label) {
					a.Labels[b]++
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
		if flagged {
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
				a.CloudSR = count(a.CloudSR, cl.Len)
			} else {
				a.CloudLDP = count(a.CloudLDP, cl.Len)
			}
		}
	}
}

// refFold folds an AS's traces one at a time through the allocating API —
// BuildPath with the annotator and owner map, RestrictToAS, Analyze,
// ClassifyTunnels, Tunnels — into a fresh Agg by addTrace's updates,
// keeping every result with its restricted path. Nothing is reused between
// traces and no address table is built, so it is the reference for the
// fold's batch storage and its table: a slot or slab overwritten while
// still read, or a row read or updated for the wrong address, shows up as
// a difference.
func refFold(d *archive.Data) (*Agg, []*core.Result) {
	ann := fingerprint.NewAnnotator(d.SNMP, d.TTL)
	asOf := bdrmap.Annotation(d.Borders).AsFunc()
	sr := map[netip.Addr]bool{}
	for _, a := range d.SREnabled {
		sr[a] = true
	}
	det := core.NewDetector()
	agg := NewAgg()
	agg.NumVPs = len(d.VPs)
	var results []*core.Result
	for vp, ts := range d.PerVP {
		for _, tr := range ts {
			sub := core.BuildPath(tr, ann, asOf).RestrictToAS(d.Meta.Record.ASN)
			var res *core.Result
			if len(sub.Hops) > 0 {
				res = det.Analyze(sub)
				results = append(results, res)
			}
			agg.addTrace(vp, tr, res, newTraceFacts(tr, res), sr)
		}
	}
	return agg, results
}

// TestFoldMatchesPerTraceReference checks the fold's reuse path against
// the per-trace reference on every analyzed AS at the default seed: the
// aggregate of DetectStream over the AS's shard must equal the reference's
// at Workers 1 and 4, and with KeepPaths on, the retained results and
// their paths must equal what the allocating API returns. KeepPaths copies
// out of the same reused storage as compact mode, so comparing the two
// modes could not catch a slot that is overwritten too early.
func TestFoldMatchesPerTraceReference(t *testing.T) {
	recs := asgen.Analyzed()
	cfg := DefaultConfig()
	shards := make([][]byte, len(recs))
	datas := make([]*archive.Data, len(recs))
	errs := make([]error, len(recs))
	if err := par.ForEach(context.Background(), 0, len(recs), func(i int) {
		d, err := MeasureAS(context.Background(), recs[i], cfg)
		if err != nil {
			errs[i] = err
			return
		}
		var buf bytes.Buffer
		errs[i] = archive.WriteData(&buf, d)
		datas[i], shards[i] = d, buf.Bytes()
	}); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if errs[i] != nil {
			t.Fatalf("AS%d: %v", rec.ID, errs[i])
		}
		agg, results := refFold(datas[i])
		for _, workers := range []int{1, 4} {
			for _, keep := range []bool{false, true} {
				c := cfg
				c.Workers, c.KeepPaths = workers, keep
				got, err := DetectStream(context.Background(), bytes.NewReader(shards[i]), c)
				if err != nil {
					t.Fatalf("AS%d: %v", rec.ID, err)
				}
				where := fmt.Sprintf("AS%d, Workers %d, KeepPaths %v", rec.ID, workers, keep)
				if !reflect.DeepEqual(got.Agg, agg) {
					t.Errorf("%s: aggregate differs from the per-trace reference", where)
				}
				if keep && !reflect.DeepEqual(got.Results, results) {
					t.Errorf("%s: retained results differ from the allocating API's", where)
				}
			}
		}
	}
}

// TestFoldTableSharedByWorkers folds an archive whose every batch brings
// responders no side record names, at Workers 8: the fold goroutine
// appends their rows to the address table between fan-outs, and eight
// workers read the table during each one. The aggregate and the retained
// results must equal the per-trace reference's. CI runs it with -race
// -count=10.
func TestFoldTableSharedByWorkers(t *testing.T) {
	const batches = 5
	raw := freshResponderArchive(t, batches)
	data, err := archive.ReadData(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	agg, results := refFold(data)
	cfg := testCfg()
	cfg.Workers = 8
	got, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Agg, agg) {
		t.Errorf("aggregate differs from the per-trace reference:\n fold %+v\n  ref %+v", got.Agg, agg)
	}
	if !reflect.DeepEqual(got.Results, results) {
		t.Error("retained results differ from the allocating API's")
	}
	fresh := 0
	for a := range got.Agg.FirstVP {
		if a.Is6() || a.As4()[1] == 9 {
			fresh++
		}
	}
	if want := 8*batches + 8*(batches+1); fresh != want {
		t.Errorf("%d responders without side records folded, want %d", fresh, want)
	}
}

// TestAllocBudgetDetectStream gates the fold's steady state: once the
// batch storage and the address table have grown, a further 256-trace
// batch of a v3 archive costs only the analysis fan-out — each trace is
// decoded into the reader's lent trace, copied into the batch storage,
// annotated from the table and analyzed in the workers' slabs. The count
// is the difference between two archives with the same side records, so
// the per-call setup (reader, fold, maps, table, storage growth) cancels
// out. A batch measures 2 allocations at Workers 1 (the fan-out's
// closures) and 6 at Workers 2 (its goroutines and their join besides);
// a fold that allocated every trace's record, paths, results and tunnel
// facts took 33 per trace.
func TestAllocBudgetDetectStream(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	const small, large = 4 * analyzeBatch, 12 * analyzeBatch
	rawSmall := syntheticArchive(t, archive.FormatV3, 4, small, 10)
	rawLarge := syntheticArchive(t, archive.FormatV3, 4, large, 10)
	for _, tc := range []struct{ workers, budget int }{{1, 3}, {2, 8}} {
		cfg := testCfg()
		cfg.Workers = tc.workers
		cfg.KeepPaths = false
		allocs := func(raw []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(rawSmall), allocs(rawLarge)
		perBatch := (b - a) / ((large - small) / analyzeBatch)
		t.Logf("Workers %d: %.0f allocs at %d traces, %.0f at %d: %.2f per batch", tc.workers, a, small, b, large, perBatch)
		if perBatch > float64(tc.budget) {
			t.Errorf("DetectStream at Workers %d: %.2f allocs per %d-trace batch in steady state, budget %d",
				tc.workers, perBatch, analyzeBatch, tc.budget)
		}
	}
}

// FuzzDetectStream throws arbitrary bytes at the streaming fold, with the
// budgets off. DetectStream must return a result or an error wrapping
// ErrBadMagic, ErrTruncated or ErrCorrupt, never panic; and whenever it
// and Detect over ReadData of the same bytes both succeed, the results
// must be deep-equal — the lent-trace path against the owning one. Both
// fronts share the address table and the tallies, so the decoded data is
// also folded by the per-trace reference, which shares neither: its
// aggregate must equal DetectStream's, and its results those Detect
// retains with KeepPaths (both in the decoded data's VP order).
func FuzzDetectStream(f *testing.F) {
	for _, path := range []string{"../archive/testdata/golden_v2.arest", "../archive/testdata/golden_v3.arest"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add(syntheticArchive(f, archive.FormatV3, 2, 300, 4)) // more than one batch
	f.Add(freshResponderArchive(f, 1))                      // new unannotated responders after the first batch
	f.Add([]byte(archive.MagicV3))

	ctx := context.Background()
	cfg := Config{Workers: 2, MaxTraceFailures: -1}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := DetectStream(ctx, bytes.NewReader(in), cfg)
		if err != nil {
			if !errors.Is(err, archive.ErrBadMagic) && !errors.Is(err, archive.ErrTruncated) && !errors.Is(err, archive.ErrCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		data, err := archive.ReadData(bytes.NewReader(in))
		if err != nil {
			return
		}
		want, err := Detect(ctx, data, cfg)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DetectStream and Detect(ReadData) differ:\n stream %+v\n detect %+v", got.Agg, want.Agg)
		}
		agg, results := refFold(data)
		if !reflect.DeepEqual(got.Agg, agg) {
			t.Fatalf("DetectStream and the per-trace reference differ:\n stream %+v\n    ref %+v", got.Agg, agg)
		}
		keep := cfg
		keep.KeepPaths = true
		kept, err := Detect(ctx, data, keep)
		if err != nil {
			t.Fatalf("Detect with KeepPaths failed where it succeeded without: %v", err)
		}
		if !reflect.DeepEqual(kept.Results, results) {
			t.Fatal("results retained by Detect differ from the per-trace reference's")
		}
	})
}
