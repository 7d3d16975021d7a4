package exp

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/testrace"
)

// sweepCfg is the trace-sweep configuration of the bench module's sweep
// workload: the default campaign without alias resolution, with four
// Paris flows per target.
func sweepCfg() Config {
	cfg := DefaultConfig()
	cfg.AliasCandidateCap = 0
	cfg.FlowsPerTarget = 4
	return cfg
}

// records returns the catalogue records with the given IDs, in order.
func records(t testing.TB, ids ...int) []asgen.Record {
	t.Helper()
	recs := make([]asgen.Record, len(ids))
	for i, id := range ids {
		rec, ok := asgen.ByID(id)
		if !ok {
			t.Fatalf("no catalogue record %d", id)
		}
		recs[i] = rec
	}
	return recs
}

// measureInto measures rec into store, as a Run worker does.
func measureInto(t testing.TB, rec asgen.Record, cfg Config, store *measureStore) *archive.Data {
	t.Helper()
	data, err := measureWithDeployment(context.Background(), rec, cfg.deployment(rec), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// One store measures Bell Canada (#28, 1,600 traces at this
// configuration), then Proximus (#7, 384), then Bell Canada again, as
// an AS worker hands its store from AS to AS: the second AS reuses the
// first one's storage, and the third regrows what the second dropped.
// Each Data must deep-equal the one MeasureAS returns in memory of its
// own and encode to the same bytes, alias resolution, which reads the
// stored traces, included.
func TestMeasureStoreReuse(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FlowsPerTarget = 4
			cfg.Workers = workers
			var store measureStore
			for _, rec := range records(t, 28, 7, 28) {
				got := measureInto(t, rec, cfg, &store)
				want, err := MeasureAS(context.Background(), rec, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("AS %d measured into a reused store differs from MeasureAS", rec.ID)
				}
				if !bytes.Equal(encodeData(t, got), encodeData(t, want)) {
					t.Fatalf("AS %d measured into a reused store encodes differently", rec.ID)
				}
			}
		})
	}
}

// measureBudgetIDs are the ASes the measurement memory gate sweeps: a
// large, a small and a middling one, so the store shrinks and regrows
// once within a pass.
var measureBudgetIDs = []int{28, 7, 15}

// measureBytesPerTrace bounds the bytes a warmed store's measurement
// allocates per trace, at the sweep configuration with Workers=1: the
// world build, the plan and the fingerprint and bdrmap stages, which are
// per AS, and the store's regrowth after its smaller AS. It is the
// measured value plus 10%. Measuring each trace into memory of its own
// took about 2.6 times as much.
const measureBytesPerTrace = 760

// TestMeasureStoreMemoryBudget is the measurement memory gate: it
// measures measureBudgetIDs twice into one store and bounds the bytes the
// second pass allocates per trace. A trace that costs its own Trace, Hops
// or LSE slab again, or a store that regrows every chunk at every AS,
// fails it.
func TestMeasureStoreMemoryBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("race instrumentation skews allocation accounting")
	}
	cfg := sweepCfg()
	cfg.Workers = 1
	recs := records(t, measureBudgetIDs...)
	var store measureStore
	pass := func() (traces int) {
		for _, rec := range recs {
			traces += len(measureInto(t, rec, cfg, &store).Traces())
		}
		return traces
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traces := pass()
	runtime.ReadMemStats(&after)
	perTrace := float64(after.TotalAlloc-before.TotalAlloc) / float64(traces)
	t.Logf("second pass: %d traces, %.0f B/trace, %.2f allocs/trace (budget %d B/trace)",
		traces, perTrace, float64(after.Mallocs-before.Mallocs)/float64(traces), measureBytesPerTrace)
	if perTrace > measureBytesPerTrace {
		t.Errorf("a warmed store's measurement allocated %.0f B/trace, budget %d", perTrace, measureBytesPerTrace)
	}
}

// BenchmarkMeasureSweep measures measureBudgetIDs at the sweep
// configuration into one store per benchmark, handed from op to op as an
// AS worker hands it from AS to AS. Besides B/op and allocs/op it reports
// the GC cycles each op ran.
func BenchmarkMeasureSweep(b *testing.B) {
	cfg := sweepCfg()
	recs := records(b, measureBudgetIDs...)
	var store measureStore
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			measureInto(b, rec, cfg, &store)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}
