// The streaming Detect path: a bounded-memory fold over archive records.
// fold implements archive.Visitor — side records accumulate annotation
// state, which seals at the first trace; traces are analyzed in fixed-size
// batches (concurrently, under AnalyzeWorkers) and folded into an Agg in
// stream order, so the same records yield bit-identical aggregates at every
// worker count. DetectStream drives it straight off archive bytes without
// ever materializing the trace set; Detect in campaign.go drives the same
// fold from an in-memory archive.Data, which is what pins the two paths
// deep-equal.
package exp

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"

	"arest/internal/archive"
	"arest/internal/bdrmap"
	"arest/internal/core"
	"arest/internal/fingerprint"
	"arest/internal/mpls"
	"arest/internal/obs"
	"arest/internal/par"
	"arest/internal/probe"
)

// analyzeBatch is the fold's in-flight bound: at most this many traces are
// resident between archive decode and aggregate accumulation. It is a
// fixed constant — never derived from the worker count — so batch
// boundaries, and with them every counter and gauge the fold emits, are
// identical at any concurrency.
const analyzeBatch = 256

// fold is the streaming Detect accumulator. It is not safe for concurrent
// use; concurrency lives inside flush, which fans one batch out across
// AnalyzeWorkers and then accumulates the slots in stream order.
type fold struct {
	cfg Config
	// ctx bounds the fold's lifetime: flush's fan-out aborts at the next
	// trace boundary when it is cancelled, and the fold surfaces the cause.
	ctx context.Context

	res  *ASResult
	agg  *Agg
	det  *core.Detector
	busy *obs.Span
	asn  int

	// planned sums the per-VP trace counts as VP records arrive; once the
	// VP run ends, planBudgetErr re-derives the live run's MaxASTraces
	// verdict from it (the sum equals the live plan's job count).
	planned     int
	planChecked bool

	// Side state accumulated before the first trace, then sealed into the
	// result's annotator and owner annotation.
	snmp    map[netip.Addr]mpls.Vendor
	ttl     map[netip.Addr]mpls.Vendor
	borders map[netip.Addr]int
	sealed  bool

	batch   []archive.TraceRecord
	results []*core.Result // analysis slots, indexed like batch
	facts   []traceFacts   // per-trace classification slots, indexed like batch
}

func newFold(ctx context.Context, cfg Config) *fold {
	return &fold{
		cfg:     cfg,
		ctx:     ctx,
		res:     &ASResult{SREnabled: map[netip.Addr]bool{}},
		agg:     NewAgg(),
		det:     core.NewDetector(),
		busy:    cfg.Metrics.Span("exp", "workers.busy"),
		snmp:    map[netip.Addr]mpls.Vendor{},
		ttl:     map[netip.Addr]mpls.Vendor{},
		borders: map[netip.Addr]int{},
		batch:   make([]archive.TraceRecord, 0, analyzeBatch),
		results: make([]*core.Result, analyzeBatch),
		facts:   make([]traceFacts, analyzeBatch),
	}
}

// record counts one folded archive record (streamed and in-memory drives
// emit the same record sequence, so the counter is path-independent).
func (f *fold) record() { f.cfg.Metrics.Counter("exp", "stream.records").Inc() }

// sideRecord guards a side-data record: once the first trace has sealed the
// annotation state, further side records cannot be honored by a one-pass
// fold, so they are a container-order violation.
func (f *fold) sideRecord(kind string) error {
	f.record()
	if err := f.planBudgetErr(); err != nil {
		return err
	}
	if f.sealed {
		return fmt.Errorf("%w: %s record after traces in a one-pass fold", archive.ErrCorrupt, kind)
	}
	return nil
}

// planBudgetErr applies the deterministic per-AS trace budget to the
// archived plan, once, as soon as the VP run has ended (the first non-VP
// record, or finish for a VP-only archive). The summed per-VP trace counts
// equal the live plan's job count, so a resumed shard re-derives the exact
// verdict a fresh measurement would reach — before any trace is decoded.
func (f *fold) planBudgetErr() error {
	if f.planChecked {
		return nil
	}
	f.planChecked = true
	return f.cfg.ASBudgetErr(f.planned)
}

func (f *fold) Meta(m archive.Meta) error {
	f.record()
	f.res.Record = m.Record
	f.res.Dep = m.Dep
	f.asn = m.Record.ASN
	return nil
}

func (f *fold) VP(rec archive.VPRecord) error {
	f.record()
	f.planned += rec.Traces
	f.agg.NumVPs++
	if f.cfg.KeepPaths {
		f.res.PerVP = append(f.res.PerVP, VPTraces{VP: rec.Addr, Traces: []*probe.Trace{}})
	}
	return nil
}

func (f *fold) Fingerprint(rec archive.FingerprintRecord) error {
	if err := f.sideRecord("fingerprint"); err != nil {
		return err
	}
	switch rec.Source {
	case archive.SourceSNMP:
		f.snmp[rec.Addr] = rec.Vendor
	case archive.SourceTTL:
		f.ttl[rec.Addr] = rec.Vendor
	}
	return nil
}

// AliasSet: alias sets feed bdrmap during measurement; the analysis stages
// never consume them, so the fold validates placement and moves on.
func (f *fold) AliasSet(archive.AliasSetRecord) error { return f.sideRecord("alias-set") }

func (f *fold) Border(rec archive.BorderRecord) error {
	if err := f.sideRecord("border"); err != nil {
		return err
	}
	f.borders[rec.Addr] = rec.ASN
	return nil
}

func (f *fold) SREnabled(rec archive.SREnabledRecord) error {
	if err := f.sideRecord("sr-enabled"); err != nil {
		return err
	}
	f.res.SREnabled[rec.Addr] = true
	return nil
}

func (f *fold) Degraded(rec archive.Degraded) error {
	if err := f.sideRecord("degraded"); err != nil {
		return err
	}
	// Budget exceeded: abort before a single trace is decoded — in every
	// archive the degradation summary precedes the trace run.
	return f.cfg.degradedBudgetErr(&rec)
}

func (f *fold) Trace(rec archive.TraceRecord) error {
	f.record()
	if err := f.planBudgetErr(); err != nil {
		return err
	}
	if !f.sealed {
		f.seal()
	}
	f.batch = append(f.batch, rec)
	if len(f.batch) == analyzeBatch {
		return f.flush()
	}
	return nil
}

// seal freezes the side state into the result's annotator and owner
// annotation. After seal the fold is trace-only.
func (f *fold) seal() {
	f.sealed = true
	f.res.Annotator = fingerprint.NewAnnotator(f.snmp, f.ttl)
	f.res.Annotation = bdrmap.Annotation(f.borders)
}

// flush analyzes the pending batch concurrently, then accumulates the
// slots in stream order. All cross-trace state mutation happens here, on
// the fold's goroutine, so the fold is race-free by construction and its
// aggregates are independent of the worker count. A cancelled fold aborts
// with the cause before accumulating anything from the interrupted batch —
// a partial batch never reaches the aggregates.
func (f *fold) flush() error {
	n := len(f.batch)
	if n == 0 {
		return nil
	}
	reg := f.cfg.Metrics
	reg.Counter("exp", "jobs.detect").Add(uint64(n))
	reg.Counter("exp", "stream.batches").Inc()
	reg.Gauge("exp", "stream.inflight").SetMax(uint64(n))
	asOf := f.res.Annotation.AsFunc()
	if err := par.ForEach(f.ctx, f.cfg.analyzeWorkers(), n, func(i int) {
		defer f.busy.Start()()
		tr := f.batch[i].Trace
		sub := core.BuildPath(tr, f.res.Annotator, asOf).RestrictToAS(f.asn)
		if len(sub.Hops) > 0 {
			f.results[i] = f.det.Analyze(sub)
		}
		f.facts[i] = newTraceFacts(tr, f.results[i])
	}); err != nil {
		return err
	}
	inAS := 0
	for i := 0; i < n; i++ {
		rec := f.batch[i]
		f.agg.addTrace(rec.VPIndex, rec.Trace, f.results[i], f.facts[i], f.res.SREnabled)
		if f.cfg.KeepPaths {
			f.res.PerVP[rec.VPIndex].Traces = append(f.res.PerVP[rec.VPIndex].Traces, rec.Trace)
		}
		if f.results[i] != nil {
			inAS++
			if f.cfg.KeepPaths {
				f.res.Paths = append(f.res.Paths, f.results[i].Path)
				f.res.Results = append(f.res.Results, f.results[i])
			}
		}
		f.results[i], f.facts[i] = nil, traceFacts{}
	}
	reg.Counter("exp", "paths").Add(uint64(inAS))
	f.batch = f.batch[:0]
	f.cfg.beat() // one unit of supervised progress per analyzed batch
	return nil
}

// finish drains the final partial batch and returns the completed result.
func (f *fold) finish() (*ASResult, error) {
	if err := f.planBudgetErr(); err != nil {
		return nil, err
	}
	if err := f.flush(); err != nil {
		return nil, err
	}
	if !f.sealed {
		f.seal() // archive with zero traces
	}
	f.res.TracesSent = f.agg.Traces
	f.res.Agg = f.agg
	return f.res, nil
}

// DetectStream runs the Annotate and Detect stages as a one-pass fold over
// archive bytes (v2 or v3): peak live memory is bounded by the accumulated
// aggregates (plus one analyze batch), never by the archive size. As in
// Detect, the trace-failure budget is applied the moment the degradation
// record arrives, before any trace. The result is deep-equal to Detect over
// the materialized archive.
func DetectStream(ctx context.Context, r io.Reader, cfg Config) (*ASResult, error) {
	ar, err := archive.NewReader(r)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	done := reg.Span("exp", "stage.detect").Start()
	defer done()
	f := newFold(ctx, cfg)
	if err := archive.StreamRecords(ar, f); err != nil {
		return nil, err
	}
	return f.finish()
}

// DetectStreamFile is DetectStream over one shard on disk.
func DetectStreamFile(ctx context.Context, path string, cfg Config) (*ASResult, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return DetectStream(ctx, file, cfg)
}

// foldData drives a fold from an in-memory archive.Data, emitting exactly
// the record sequence WriteData would put in an archive — meta, VPs, side
// data, traces — so Detect over a Data and DetectStream over its encoded
// bytes produce identical results and identical instrumentation.
func foldData(f *fold, d *archive.Data) error {
	if err := f.Meta(d.Meta); err != nil {
		return err
	}
	for i, vp := range d.VPs {
		if err := f.VP(archive.VPRecord{Index: i, Addr: vp, Traces: len(d.PerVP[i])}); err != nil {
			return err
		}
	}
	for _, src := range []struct {
		src archive.FingerprintSource
		m   map[netip.Addr]mpls.Vendor
	}{{archive.SourceSNMP, d.SNMP}, {archive.SourceTTL, d.TTL}} {
		for _, a := range sortedAddrKeys(src.m) {
			if err := f.Fingerprint(archive.FingerprintRecord{Addr: a, Vendor: src.m[a], Source: src.src}); err != nil {
				return err
			}
		}
	}
	for _, set := range d.Aliases {
		if err := f.AliasSet(archive.AliasSetRecord{Addrs: set}); err != nil {
			return err
		}
	}
	for _, a := range sortedAddrKeys(d.Borders) {
		if err := f.Border(archive.BorderRecord{Addr: a, ASN: d.Borders[a]}); err != nil {
			return err
		}
	}
	for _, a := range d.SREnabled {
		if err := f.SREnabled(archive.SREnabledRecord{Addr: a}); err != nil {
			return err
		}
	}
	if d.Degraded != nil {
		if err := f.Degraded(*d.Degraded); err != nil {
			return err
		}
	}
	for i, ts := range d.PerVP {
		for _, tr := range ts {
			if err := f.Trace(archive.TraceRecord{VPIndex: i, Trace: tr}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedAddrKeys returns a map's keys in address order, for deterministic
// record emission from in-memory data.
func sortedAddrKeys[V any](m map[netip.Addr]V) []netip.Addr {
	out := make([]netip.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
