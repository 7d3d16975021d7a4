package exp

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/obs"
)

// project returns the ASResult itself: since the staged-pipeline refactor
// dropped the *asgen.World reference, every field sits inside the
// determinism contract and the whole result is directly comparable.
func project(r *ASResult) *ASResult { return r }

// TestCampaignParallelMatchesSequential runs the same campaign fully
// sequentially (Workers: 1) and with an 8-worker fan-out and requires
// deep-equal results — aggregates, delimited paths, AReST verdicts — and
// identical metric-counter snapshots, pinning the obs determinism
// contract. Each AS's measurement must also encode to the same archive
// bytes at both widths: traces, fingerprints, alias sets and bdrmap
// borders. Under -race this exercises every parallel stage — the AS pool,
// trace sweeps, fingerprint echoes, conflict-ordered alias probing, and
// detection.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	var recs []asgen.Record
	for _, id := range []int{2, 15, 28, 40} {
		r, ok := asgen.ByID(id)
		if !ok {
			t.Fatalf("record %d missing", id)
		}
		recs = append(recs, r)
	}
	regs := map[int]*obs.Registry{}
	run := func(workers int) *Campaign {
		cfg := testCfg()
		cfg.Workers = workers
		regs[workers] = obs.New()
		cfg.Metrics = regs[workers]
		c, err := Run(context.Background(), recs, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return c
	}
	seq := run(1)
	parl := run(8)

	// The deterministic section (counters, gauges, histograms) must be
	// bit-identical across worker counts; spans are wall-clock and excluded.
	seqSnap := regs[1].Snapshot().Deterministic()
	parSnap := regs[8].Snapshot().Deterministic()
	if !reflect.DeepEqual(seqSnap, parSnap) {
		for k, v := range seqSnap.Counters {
			if parSnap.Counters[k] != v {
				t.Errorf("counter %s: %d (seq) vs %d (par)", k, v, parSnap.Counters[k])
			}
		}
		for k, v := range parSnap.Counters {
			if _, ok := seqSnap.Counters[k]; !ok {
				t.Errorf("counter %s: only in parallel run (%d)", k, v)
			}
		}
		if !reflect.DeepEqual(seqSnap.Gauges, parSnap.Gauges) {
			t.Errorf("gauges diverged: %v vs %v", seqSnap.Gauges, parSnap.Gauges)
		}
		if !reflect.DeepEqual(seqSnap.Histograms, parSnap.Histograms) {
			t.Errorf("histograms diverged")
		}
	}
	// The snapshot must cover every instrumented stage.
	for _, stage := range []string{"netsim.", "probe.", "alias.", "fingerprint.", "exp."} {
		found := false
		for k := range seqSnap.Counters {
			if strings.HasPrefix(k, stage) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no counters recorded for stage %q", stage)
		}
	}

	if len(seq.ASes) != len(parl.ASes) {
		t.Fatalf("AS count diverged: %d vs %d", len(seq.ASes), len(parl.ASes))
	}
	for i := range seq.ASes {
		sp, pp := project(seq.ASes[i]), project(parl.ASes[i])
		if !reflect.DeepEqual(sp, pp) {
			// Narrow the report to the first diverging field.
			switch {
			case !reflect.DeepEqual(sp.Agg, pp.Agg):
				t.Errorf("AS#%d: aggregates diverged", sp.Record.ID)
			case !reflect.DeepEqual(sp.Results, pp.Results):
				t.Errorf("AS#%d: AReST results diverged", sp.Record.ID)
			default:
				t.Errorf("AS#%d: results diverged", sp.Record.ID)
			}
		}
	}

	for _, rec := range recs {
		var enc [2][]byte
		for i, workers := range []int{1, 8} {
			cfg := testCfg()
			cfg.Workers = workers
			d, err := MeasureAS(context.Background(), rec, cfg)
			if err != nil {
				t.Fatalf("AS#%d, workers=%d: %v", rec.ID, workers, err)
			}
			var buf bytes.Buffer
			if err := archive.WriteData(&buf, d); err != nil {
				t.Fatal(err)
			}
			enc[i] = buf.Bytes()
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("AS#%d: measured archive bytes diverged between workers=1 and workers=8", rec.ID)
		}
	}
}
