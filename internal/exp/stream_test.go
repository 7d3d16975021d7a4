package exp

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/mpls"
	"arest/internal/obs"
	"arest/internal/probe"
	"arest/internal/testrace"
)

// measureArchived measures one AS and returns both the in-memory campaign
// and its wire encoding (v3), so tests can pin the materialized and streamed
// Detect paths against each other.
func measureArchived(t *testing.T, id int) (*archive.Data, []byte) {
	t.Helper()
	rec, ok := asgen.ByID(id)
	if !ok {
		t.Fatalf("record %d missing", id)
	}
	data, err := MeasureAS(context.Background(), rec, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := archive.WriteData(&buf, data); err != nil {
		t.Fatal(err)
	}
	return data, buf.Bytes()
}

// TestDetectStreamMatchesDetect is the tentpole equivalence gate: folding
// the encoded archive one record at a time must produce a result deep-equal
// to the legacy materialized path, at every worker count and in both
// retained and compact mode.
func TestDetectStreamMatchesDetect(t *testing.T) {
	for _, id := range []int{7, 46} { // full SR; ground-truth AS
		data, raw := measureArchived(t, id)
		for _, workers := range []int{1, 8} {
			for _, keep := range []bool{false, true} {
				name := fmt.Sprintf("as%d/workers%d/keep%v", id, workers, keep)
				t.Run(name, func(t *testing.T) {
					cfg := testCfg()
					cfg.Workers = workers
					cfg.KeepPaths = keep
					legacy, err := Detect(context.Background(), data, cfg)
					if err != nil {
						t.Fatal(err)
					}
					streamed, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(legacy, streamed) {
						t.Errorf("DetectStream != Detect (workers=%d keep=%v)", workers, keep)
						if !reflect.DeepEqual(legacy.Agg, streamed.Agg) {
							t.Errorf("aggregates diverge: legacy %+v\nstreamed %+v", legacy.Agg, streamed.Agg)
						}
					}
				})
			}
		}
	}
}

// TestDetectStreamAnalyzeWorkersInvariant pins that the analysis fan-out
// width changes nothing: the fold accumulates in stream order regardless of
// how many workers analyzed each batch.
func TestDetectStreamAnalyzeWorkersInvariant(t *testing.T) {
	_, raw := measureArchived(t, 46)
	var want *ASResult
	for _, aw := range []int{1, 3, 8} {
		cfg := testCfg()
		cfg.AnalyzeWorkers = aw
		got, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("AnalyzeWorkers=%d diverges from AnalyzeWorkers=1", aw)
		}
	}
}

// TestDetectStreamInstrumentationMatchesDetect requires the two Detect
// fronts to emit bit-identical deterministic metrics: same record counter,
// same batch boundaries, same in-flight gauge — the foldData drive must be
// indistinguishable from the wire drive inside the determinism contract.
func TestDetectStreamInstrumentationMatchesDetect(t *testing.T) {
	data, raw := measureArchived(t, 46)

	legacyReg := obs.New()
	cfg := testCfg()
	cfg.Metrics = legacyReg
	if _, err := Detect(context.Background(), data, cfg); err != nil {
		t.Fatal(err)
	}

	streamReg := obs.New()
	cfg.Metrics = streamReg
	if _, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg); err != nil {
		t.Fatal(err)
	}

	legacySnap := legacyReg.Snapshot().Deterministic()
	streamSnap := streamReg.Snapshot().Deterministic()
	if !reflect.DeepEqual(legacySnap, streamSnap) {
		for k, v := range legacySnap.Counters {
			if streamSnap.Counters[k] != v {
				t.Errorf("counter %s: %d (Detect) vs %d (DetectStream)", k, v, streamSnap.Counters[k])
			}
		}
		for k, v := range streamSnap.Counters {
			if _, ok := legacySnap.Counters[k]; !ok {
				t.Errorf("counter %s: only in DetectStream (%d)", k, v)
			}
		}
		t.Error("deterministic snapshots diverge between Detect and DetectStream")
	}
}

// TestDetectStreamV2MatchesV3 replays one campaign from its v2 and its v3
// encoding: the results must be deep-equal and the deterministic metrics
// identical at every analysis width, retained and compact — the trace
// payload codec is invisible above the archive layer.
func TestDetectStreamV2MatchesV3(t *testing.T) {
	data, rawV3 := measureArchived(t, 46)
	v2 := *data
	v2.Meta.Format = archive.FormatV2
	var buf bytes.Buffer
	if err := archive.WriteData(&buf, &v2); err != nil {
		t.Fatal(err)
	}
	rawV2 := buf.Bytes()
	for _, aw := range []int{1, 4} {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("analyze%d/keep%v", aw, keep), func(t *testing.T) {
				replay := func(raw []byte) (*ASResult, obs.Snapshot) {
					cfg := testCfg()
					cfg.AnalyzeWorkers = aw
					cfg.KeepPaths = keep
					cfg.Metrics = obs.New()
					res, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res, cfg.Metrics.Snapshot().Deterministic()
				}
				resV2, snapV2 := replay(rawV2)
				resV3, snapV3 := replay(rawV3)
				if !reflect.DeepEqual(resV2, resV3) {
					t.Error("DetectStream over v2 != over v3")
				}
				if !reflect.DeepEqual(snapV2, snapV3) {
					t.Error("deterministic metrics diverge between v2 and v3 replays")
				}
			})
		}
	}
}

// TestAggMergeMatchesSingleFold partitions one AS's traces across two folds
// and requires the merged aggregate to be deep-equal to the single
// sequential fold — the merge law that lets shards be analyzed
// concurrently. Merging in either order must agree (commutativity).
func TestAggMergeMatchesSingleFold(t *testing.T) {
	data, _ := measureArchived(t, 46)
	cfg := testCfg()
	cfg.KeepPaths = false

	whole, err := Detect(context.Background(), data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Split round-robin inside each VP so both halves see every VP and an
	// interleaved slice of its traces.
	half := func(parity int) *archive.Data {
		d := *data
		d.PerVP = make([][]*probe.Trace, len(data.PerVP))
		for i, ts := range data.PerVP {
			d.PerVP[i] = []*probe.Trace{}
			for j, tr := range ts {
				if j%2 == parity {
					d.PerVP[i] = append(d.PerVP[i], tr)
				}
			}
		}
		return &d
	}
	resA, err := Detect(context.Background(), half(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Detect(context.Background(), half(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	merged := NewAgg()
	merged.Merge(resA.Agg)
	merged.Merge(resB.Agg)
	if !reflect.DeepEqual(merged, whole.Agg) {
		t.Errorf("merged partition aggregate != sequential fold:\nmerged %+v\nwhole  %+v", merged, whole.Agg)
	}

	reversed := NewAgg()
	reversed.Merge(resB.Agg)
	reversed.Merge(resA.Agg)
	if !reflect.DeepEqual(reversed, merged) {
		t.Error("Agg.Merge is not commutative on a real campaign")
	}
}

// TestShardReplayMatchesLegacyDetect pins the acceptance criterion
// end-to-end on disk: DetectStream over a written shard must be deep-equal
// to the legacy materialized pipeline (ReadFile + Detect) over the same
// shard.
func TestShardReplayMatchesLegacyDetect(t *testing.T) {
	data, _ := measureArchived(t, 7)
	cfg := testCfg()
	path := filepath.Join(t.TempDir(), "as7.arest")
	if err := archive.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	onDisk, err := archive.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Detect(context.Background(), onDisk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := DetectStreamFile(context.Background(), path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, streamed) {
		t.Error("DetectStreamFile != Detect(context.Background(), archive.ReadFile(...)) over the same shard")
	}
}

// TestRunShardedAnalyzeWorkersEquivalence replays a sharded campaign with a
// different worker split (many shards in flight, narrow per-shard analysis)
// and requires results identical to the sequential measuring run.
func TestRunShardedAnalyzeWorkersEquivalence(t *testing.T) {
	var recs []asgen.Record
	for _, id := range []int{7, 46} {
		r, ok := asgen.ByID(id)
		if !ok {
			t.Fatalf("record %d missing", id)
		}
		recs = append(recs, r)
	}
	dir := t.TempDir()

	seqCfg := testCfg()
	seqCfg.Workers = 1
	seq, statuses, err := RunSharded(context.Background(), recs, seqCfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != ShardMeasured {
			t.Fatalf("first run shard %d: status %v, want measured", i, s)
		}
	}

	parCfg := testCfg()
	parCfg.Workers = 4
	parCfg.AnalyzeWorkers = 2
	parl, statuses, err := RunSharded(context.Background(), recs, parCfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != ShardResumed {
			t.Fatalf("replay shard %d: status %v, want resumed", i, s)
		}
	}
	if !reflect.DeepEqual(seq.ASes, parl.ASes) {
		t.Error("sharded replay with AnalyzeWorkers diverges from the measuring run")
	}
}

// syntheticArchive fabricates a large shard in format without running a campaign:
// nTraces traces over a small address pool, every hop labeled, all owned by
// the target AS. The pool keeps the true aggregate state tiny while the
// wire form grows linearly, which is exactly the regime the memory-budget
// gate needs.
func syntheticArchive(t testing.TB, format string, vps, nTraces, hops int) []byte {
	t.Helper()
	rec, ok := asgen.ByID(46)
	if !ok {
		t.Fatal("record 46 missing")
	}
	const poolSize = 64
	pool := make([]netip.Addr, poolSize)
	borders := map[netip.Addr]int{}
	for i := range pool {
		pool[i] = netip.AddrFrom4([4]byte{10, 1, byte(i / 256), byte(i % 256)})
		borders[pool[i]] = rec.ASN
	}
	d := &archive.Data{
		Meta:    archive.Meta{Format: format, Record: rec, NumVPs: vps},
		Borders: borders,
		SNMP:    map[netip.Addr]mpls.Vendor{pool[0]: mpls.VendorCisco},
		TTL:     map[netip.Addr]mpls.Vendor{},
		PerVP:   make([][]*probe.Trace, vps),
	}
	for v := 0; v < vps; v++ {
		d.VPs = append(d.VPs, netip.AddrFrom4([4]byte{192, 0, 2, byte(v + 1)}))
	}
	for i := 0; i < nTraces; i++ {
		v := i % vps
		tr := &probe.Trace{
			VP:     d.VPs[v],
			Dst:    pool[(i*7)%poolSize],
			FlowID: uint16(i),
		}
		for h := 0; h < hops; h++ {
			tr.Hops = append(tr.Hops, probe.Hop{
				TTL:  h + 1,
				Addr: pool[(i*3+h)%poolSize],
				Stack: mpls.Stack{
					{Label: uint32(16000 + (i+h)%100), TTL: 1},
					{Label: uint32(1000 + h), S: true, TTL: 1},
				},
				QTTL: 1,
			})
		}
		d.PerVP[v] = append(d.PerVP[v], tr)
	}
	var buf bytes.Buffer
	if err := archive.WriteData(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// memoryBudgetPerTrace bounds the live heap a compact-mode DetectStream may
// retain per folded trace. The fold keeps aggregates over a fixed address
// pool, so the true cost is near zero per trace; materializing the traces
// instead costs over a kilobyte each (a Trace, ten Hops and their stacks).
// The budget is stated per trace, not per input byte, so the gate is
// equally tight over the compact v3 encoding and the verbose v2 one.
const memoryBudgetPerTrace = 64

// TestDetectStreamMemoryBudget is the streaming-replay memory gate: folding
// an 8000-trace shard in compact mode must leave a live heap bounded by the
// aggregates, not by the trace count, in both archive formats.
func TestDetectStreamMemoryBudget(t *testing.T) {
	if testrace.Enabled {
		t.Skip("race instrumentation skews heap accounting")
	}
	const nTraces = 8000
	for _, format := range []string{archive.FormatV2, archive.FormatV3} {
		t.Run(format, func(t *testing.T) {
			raw := syntheticArchive(t, format, 4, nTraces, 10)
			cfg := testCfg()
			cfg.KeepPaths = false

			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)

			res, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg)
			if err != nil {
				t.Fatal(err)
			}

			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(res)
			runtime.KeepAlive(raw) // live across both readings, so the delta is the fold alone

			delta := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			budget := int64(nTraces * memoryBudgetPerTrace)
			t.Logf("archive %d bytes, live-heap delta %d bytes (budget %d)", len(raw), delta, budget)
			if delta > budget {
				t.Errorf("live heap grew %d bytes over %d traces; streaming fold is retaining input (budget %d B/trace)",
					delta, nTraces, memoryBudgetPerTrace)
			}
			if res.Agg.Traces != nTraces {
				t.Errorf("folded %d traces, want %d", res.Agg.Traces, nTraces)
			}
		})
	}
}

// Analyze-throughput benchmarks: the streamed fold against the materialized
// read-then-fold path, over the same synthetic shard bytes.
func benchArchive(b *testing.B, format string) []byte {
	return syntheticArchive(b, format, 4, 2000, 10)
}

func benchDetectStream(b *testing.B, format string) {
	raw := benchArchive(b, format)
	cfg := testCfg()
	cfg.KeepPaths = false
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectStream(context.Background(), bytes.NewReader(raw), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectStream(b *testing.B)   { benchDetectStream(b, archive.FormatV2) }
func BenchmarkDetectStreamV3(b *testing.B) { benchDetectStream(b, archive.FormatV3) }

func BenchmarkDetectMaterialized(b *testing.B) {
	raw := benchArchive(b, archive.FormatV2)
	cfg := testCfg()
	cfg.KeepPaths = false
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := archive.ReadData(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Detect(context.Background(), data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
