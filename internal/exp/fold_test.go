package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/bdrmap"
	"arest/internal/core"
	"arest/internal/fingerprint"
	"arest/internal/par"
	"arest/internal/testrace"
)

// refFold folds an AS's traces one at a time through the allocating API —
// BuildPath, RestrictToAS, Analyze, ClassifyTunnels, Tunnels — into a
// fresh Agg, keeping every result with its restricted path. Nothing is
// reused between traces, so it is the reference for the fold's batch
// storage: a slot or slab overwritten while still read shows up as a
// difference.
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

// TestAllocBudgetDetectStream gates the fold's steady state: once the
// batch storage has grown, a further trace of a v3 archive costs no
// allocation — it is decoded into the reader's lent trace, copied into the
// batch storage and analyzed in the workers' slabs. The budget is taken as
// the difference between two archives with the same side records, so the
// per-call setup (reader, fold, maps, annotator, storage growth) cancels
// out. What remains is per batch — the owner-lookup closure and the
// analysis fan-out's goroutines, a few allocations per 256 traces — so the
// count measures 0.013 per trace on this archive, where a fold that
// allocated every trace's record, paths, results and tunnel facts took 33.
// The budget is 1.
func TestAllocBudgetDetectStream(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	const small, large = 1024, 3072
	cfg := testCfg()
	cfg.KeepPaths = false
	allocs := func(raw []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(syntheticArchive(t, archive.FormatV3, 4, small, 10)), allocs(syntheticArchive(t, archive.FormatV3, 4, large, 10))
	perTrace := (b - a) / (large - small)
	t.Logf("%.0f allocs at %d traces, %.0f at %d: %.3f per trace", a, small, b, large, perTrace)
	const budget = 1
	if perTrace > budget {
		t.Errorf("DetectStream: %.2f allocs per trace in steady state, budget %d", perTrace, budget)
	}
}

// FuzzDetectStream throws arbitrary bytes at the streaming fold, with the
// budgets off. DetectStream must return a result or an error wrapping
// ErrBadMagic, ErrTruncated or ErrCorrupt, never panic; and whenever it
// and Detect over ReadData of the same bytes both succeed, the results
// must be deep-equal — the lent-trace path against the owning one.
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
	})
}
