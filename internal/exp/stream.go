// The streaming Detect path: a bounded-memory fold over archive records.
// fold implements archive.Visitor — side records fill a per-AS address
// table, which seals at the first trace; traces are analyzed in fixed-size
// batches (concurrently, under Config.Workers) and accumulated into that
// table and the AS's Agg in stream order, and finish publishes the table
// into the Agg, so the same records yield bit-identical aggregates at
// every worker count. DetectStream drives it straight off archive bytes
// without ever materializing the trace set; Detect in campaign.go drives
// the same fold through archive.Data.Visit, which emits the records of an
// in-memory Data in the order WriteData encodes them, and that is what
// pins the two paths deep-equal. Each batch is built in a foldStore that
// is reset, not reallocated, from one batch to the next, so the fold
// allocates nothing per trace once its storage has grown to the largest
// batch.
package exp

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"

	"arest/internal/archive"
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
// Config.Workers and then accumulates the slots in stream order.
type fold struct {
	cfg Config
	// ctx bounds the fold's lifetime: flush's fan-out aborts at the next
	// trace boundary when it is cancelled, and the fold surfaces the cause.
	ctx context.Context

	res     *ASResult
	agg     *Agg
	det     *core.Detector
	busy    *obs.Span
	records *obs.Counter
	asn     int

	// planned sums the per-VP trace counts as VP records arrive; once the
	// VP run ends, planBudgetErr re-derives the live run's MaxASTraces
	// verdict from it (the sum equals the live plan's job count).
	planned     int
	planChecked bool

	// Fingerprint records collect here until seal stamps each table row
	// with the annotator's answer for its address.
	snmp   map[netip.Addr]mpls.Vendor
	ttl    map[netip.Addr]mpls.Vendor
	sealed bool

	// tab is the AS's address table (it lives in store); finish publishes
	// it into agg.
	tab *addrTable

	// store holds the pending batch: its first pending slots are filled.
	store   *foldStore
	pending int
}

// addrTable is one AS's address table: a row for every address the fold
// reads or accumulates anything for, found with one map lookup. Side
// records add rows as they arrive; a responder no side record names gets
// its row when the fold goroutine first accumulates it. Rows are therefore
// in stream order, the same at every worker count. Analysis workers only
// read the table, during flush's fan-out; only the fold goroutine writes
// it, after the fan-out has returned and before the next one starts.
type addrTable struct {
	index map[netip.Addr]int32
	rows  []addrRow
}

// addrRow is everything the fold reads or accumulates for one address.
// Its zero value, the row of an address no side record names, annotates
// as the annotator and the owner map do an unknown address: no vendor, no
// source, owner 0.
type addrRow struct {
	addr  netip.Addr
	fp    fingerprint.Result // the annotator's answer, stamped at seal
	owner int                // bdrmap owner ASN
	sr    bool               // SR-enabled ground truth

	// seen: the address responded in some trace, first at VP firstVP.
	seen    bool
	firstVP int
	// inAS: the address is a hop of some AS-restricted path; iface reduces
	// those occurrences (Source and Vendor are fp's, filled on publish).
	inAS  bool
	iface IfaceAgg
}

// reset empties the table and keeps its storage.
func (t *addrTable) reset() {
	if t.index == nil {
		t.index = map[netip.Addr]int32{}
	}
	clear(t.index)
	t.rows = t.rows[:0]
}

// row returns the index of addr's row, appending a row if addr has none.
func (t *addrTable) row(addr netip.Addr) int32 {
	if r, ok := t.index[addr]; ok {
		return r
	}
	r := int32(len(t.rows))
	t.rows = append(t.rows, addrRow{addr: addr})
	t.index[addr] = r
	return r
}

// foldStore is an AS worker's storage: the storage a fold builds its
// batches in — the batch slots, copies of lent traces, and one set of
// append-only slabs per analysis worker for the paths, row indexes,
// results and tunnel facts — and the trace storage the worker's
// measurement writes into. The batch storage is reset at every batch and
// keeps its capacity, so it holds only what one batch produced. The
// address table and the measurement are reset, keeping their storage, at
// every AS.
//
// A store belongs to one Run, RunSharded, RunLongitudinal, Detect or
// DetectStream call: an AS worker hands its store from one AS to the
// next, and the store is dropped when the call returns. The lifetime rule
// that makes the reuse safe: nothing a call returns points into a store.
// A measured AS's traces live in the store only until its next AS is
// measured, and until then only the fold reads them — Run's fold (Detect)
// queues them in place and drops each at the end of its batch, and
// RunSharded's replays the shard written from them. Config.KeepPaths
// copies out what it retains, and MeasureAS, whose Data the caller keeps,
// measures into a store of its own. The zero value is ready.
type foldStore struct {
	slots []batchSlot // analyzeBatch slots, allocated on first use

	// traces, hops and lses hold the batch's copies of lent traces
	// (DetectStream); Detect's traces are owned, so it never fills them.
	traces []probe.Trace
	hops   []probe.Hop
	lses   mpls.Stack

	workers []workerSlabs // indexed by analysis worker

	table addrTable // the current AS's, reset by newFold

	measured measureStore // the current AS's traces, reset by its measurement
}

// batchSlot is one trace of a batch and everything derived from it.
type batchSlot struct {
	vp   int
	tr   *probe.Trace
	path core.Path // the annotated trace: its responding hops
	// rows holds the table row of each of path's hops, -1 where the
	// address had no row when the batch was analyzed.
	rows  []int32
	sub   core.Path   // path restricted to the AS of interest
	subAt int         // the index in path.Hops of sub's first hop
	res   core.Result // the analysis of sub, when sub has hops
	facts traceFacts
}

// traceFacts are the per-trace classifications the accumulation folds.
// They are pure functions of one raw trace and its analysis, so the fold
// derives them inside its concurrent analyze fan-out, leaving only the
// accumulation itself on the fold's goroutine.
type traceFacts struct {
	tunnels  []probe.Tunnel        // raw-trace tunnel visibility classes
	analyses []core.TunnelAnalysis // interworking analysis; nil without a result
}

// workerSlabs is one analysis worker's batch storage.
type workerSlabs struct {
	arena   core.Arena
	rows    []int32
	tunnels []probe.Tunnel
}

func newFold(ctx context.Context, cfg Config, store *foldStore) *fold {
	if store.slots == nil {
		store.slots = make([]batchSlot, analyzeBatch)
	}
	store.table.reset()
	return &fold{
		cfg:   cfg,
		ctx:   ctx,
		res:   &ASResult{},
		agg:   NewAgg(),
		det:   core.NewDetector(),
		busy:  cfg.Metrics.Span("exp", "workers.busy"),
		snmp:  map[netip.Addr]mpls.Vendor{},
		ttl:   map[netip.Addr]mpls.Vendor{},
		tab:   &store.table,
		store: store,
	}
}

// record counts one folded archive record (streamed and in-memory drives
// emit the same record sequence, so the counter is path-independent).
func (f *fold) record() {
	if f.records == nil {
		f.records = f.cfg.Metrics.Counter("exp", "stream.records")
	}
	f.records.Inc()
}

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
	f.tab.row(rec.Addr)
	return nil
}

// AliasSet: alias sets feed bdrmap during measurement; the analysis stages
// never consume them, so the fold validates placement and moves on.
func (f *fold) AliasSet(archive.AliasSetRecord) error { return f.sideRecord("alias-set") }

func (f *fold) Border(rec archive.BorderRecord) error {
	if err := f.sideRecord("border"); err != nil {
		return err
	}
	f.tab.rows[f.tab.row(rec.Addr)].owner = rec.ASN
	return nil
}

func (f *fold) SREnabled(rec archive.SREnabledRecord) error {
	if err := f.sideRecord("sr-enabled"); err != nil {
		return err
	}
	f.tab.rows[f.tab.row(rec.Addr)].sr = true
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

// Trace folds one lent trace record (archive.Visitor): the trace is
// copied into the batch storage before the call returns.
func (f *fold) Trace(rec archive.TraceRecord) error {
	if err := f.admitTrace(); err != nil {
		return err
	}
	st := f.store
	if st.traces == nil {
		st.traces = make([]probe.Trace, analyzeBatch)
	}
	tr := &st.traces[f.pending]
	st.hops, st.lses = rec.Trace.CopyInto(tr, st.hops, st.lses)
	return f.add(rec.VPIndex, tr)
}

// ownedTraces is the fold as Detect drives it through archive.Data.Visit,
// whose traces are the Data's own, not lent: it queues each one in place
// instead of copying it as fold.Trace copies a lent trace.
type ownedTraces struct{ *fold }

func (o ownedTraces) Trace(rec archive.TraceRecord) error {
	if err := o.admitTrace(); err != nil {
		return err
	}
	return o.add(rec.VPIndex, rec.Trace)
}

// admitTrace counts a trace record and seals the side state at the first
// one.
func (f *fold) admitTrace() error {
	f.record()
	if err := f.planBudgetErr(); err != nil {
		return err
	}
	if !f.sealed {
		f.seal()
	}
	return nil
}

// add queues one trace the fold may read until the batch is flushed.
func (f *fold) add(vpIndex int, tr *probe.Trace) error {
	s := &f.store.slots[f.pending]
	s.vp, s.tr = vpIndex, tr
	f.pending++
	if f.pending == analyzeBatch {
		return f.flush()
	}
	return nil
}

// seal stamps every row with its address's vendor annotation, which
// fingerprint.NewAnnotator derives from the fingerprint records (it owns
// the SNMPv3-over-TTL precedence). After seal the fold is trace-only.
func (f *fold) seal() {
	f.sealed = true
	ann := fingerprint.NewAnnotator(f.snmp, f.ttl)
	f.snmp, f.ttl = nil, nil
	for i := range f.tab.rows {
		f.tab.rows[i].fp = ann.Vendor(f.tab.rows[i].addr)
	}
}

// flush analyzes the pending batch concurrently, then accumulates the
// slots in stream order. All cross-trace state mutation happens here, on
// the fold's goroutine, so the fold is race-free by construction and its
// aggregates are independent of the worker count. A cancelled fold aborts
// with the cause before accumulating anything from the interrupted batch —
// a partial batch never reaches the aggregates.
func (f *fold) flush() error {
	n := f.pending
	if n == 0 {
		return nil
	}
	reg := f.cfg.Metrics
	reg.Counter("exp", "jobs.detect").Add(uint64(n))
	reg.Counter("exp", "stream.batches").Inc()
	reg.Gauge("exp", "stream.inflight").SetMax(uint64(n))
	// Worker w analyzes the w-th contiguous share of the batch into its
	// own slabs, so each worker's slabs hold at most its share, however
	// the workers are scheduled.
	st := f.store
	workers := min(f.cfg.workers(), n)
	for len(st.workers) < workers {
		st.workers = append(st.workers, workerSlabs{})
	}
	err := par.ForEach(f.ctx, workers, workers, func(w int) {
		defer f.busy.Start()()
		ws := &st.workers[w]
		ws.arena.Reset()
		ws.rows = ws.rows[:0]
		ws.tunnels = ws.tunnels[:0]
		for i := w * n / workers; i < (w+1)*n/workers && f.ctx.Err() == nil; i++ {
			f.analyze(ws, &st.slots[i])
		}
	})
	if err == nil && f.ctx.Err() != nil {
		err = context.Cause(f.ctx) // a worker stopped short of its share
	}
	if err != nil {
		return err
	}
	inAS := 0
	for i := 0; i < n; i++ {
		s := &st.slots[i]
		var res *core.Result
		if len(s.sub.Hops) > 0 {
			res = &s.res
			inAS++
		}
		f.accumulate(s, res)
		if f.cfg.KeepPaths && res != nil {
			// An exact copy: the batch storage is reused.
			f.res.Results = append(f.res.Results, res.Clone())
		}
		s.tr = nil // Detect's traces are the caller's: hold none past the batch
	}
	reg.Counter("exp", "paths").Add(uint64(inAS))
	f.pending = 0
	st.hops, st.lses = st.hops[:0], st.lses[:0]
	f.cfg.beat() // one unit of supervised progress per analyzed batch
	return nil
}

// analyze derives one slot's path, row indexes, sub-path, analysis and
// tunnel facts, building them in ws. Each hop costs one table lookup, which
// annotates it and is kept for the accumulation; it only reads the table.
func (f *fold) analyze(ws *workerSlabs, s *batchSlot) {
	core.BuildPathInto(&s.path, &ws.arena, s.tr, nil, nil)
	k := len(ws.rows)
	for i := range s.path.Hops {
		h := &s.path.Hops[i]
		r, ok := f.tab.index[h.Addr]
		if ok {
			row := &f.tab.rows[r]
			h.Vendor, h.Source, h.ASN = row.fp.Vendor, row.fp.Source, row.owner
		} else {
			r = -1 // no row yet: BuildPathInto's zero annotation is the zero row's
		}
		ws.rows = append(ws.rows, r)
	}
	s.rows = ws.rows[k:len(ws.rows):len(ws.rows)]
	s.subAt = s.path.RestrictToASInto(&s.sub, f.asn)
	s.facts.analyses = nil
	if len(s.sub.Hops) > 0 {
		f.det.AnalyzeInto(&s.res, &ws.arena, &s.sub)
		s.facts.analyses = s.res.TunnelsInto(&ws.arena)
	}
	k = len(ws.tunnels)
	ws.tunnels = probe.AppendTunnels(ws.tunnels, s.tr)
	s.facts.tunnels = ws.tunnels[k:len(ws.tunnels):len(ws.tunnels)]
}

// accumulate folds one analyzed slot into the address table and the Agg,
// on the fold's goroutine in stream order: the per-trace reference
// (Agg.addTrace in the tests) restated over table rows. res is the
// analysis of the slot's sub-path, nil when the sub-path is empty.
func (f *fold) accumulate(s *batchSlot, res *core.Result) {
	a, tab := f.agg, f.tab
	a.Traces++
	explicit := false
	for _, tu := range s.facts.tunnels {
		a.TunnelTypes[tu.Type]++
		explicit = explicit || tu.Type == probe.TunnelExplicit
	}
	if explicit {
		a.ExplicitPaths++
	}
	for i, r := range s.rows {
		if r < 0 {
			r = tab.row(s.path.Hops[i].Addr)
			s.rows[i] = r
		}
		if row := &tab.rows[r]; !row.seen || s.vp < row.firstVP {
			row.seen, row.firstVP = true, s.vp
		}
	}
	if res == nil {
		return
	}
	a.PathsInAS++

	hops := res.Path.Hops
	rows := s.rows[s.subAt : s.subAt+len(hops)]
	for _, seg := range res.Segments {
		a.Flags[seg.Flag]++
		if seg.Flag == core.FlagCVR || seg.Flag == core.FlagCO {
			a.SeqLabels[seg.Label] = true
			if seg.SuffixMatch {
				a.SeqSuffix++
			}
		}
		allSR := true
		for k := seg.Start; k <= seg.End; k++ {
			allSR = allSR && tab.rows[rows[k]].sr
			if seg.Flag.Strong() {
				a.StrongHops++
				if hops[k].Fingerprinted() {
					a.StrongHopsFP++
				}
			}
		}
		if allSR {
			a.Confusion[seg.Flag].TP++
		} else {
			a.Confusion[seg.Flag].FP++
		}
	}

	var hit [core.AreaSR + 1]bool
	for _, area := range res.Areas {
		hit[area] = true
	}
	for area, ok := range hit {
		if ok {
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
		row := &tab.rows[rows[i]]
		row.inAS = true
		if area := res.Areas[i]; area > row.iface.Area {
			row.iface.Area = area
		}
		row.iface.Flagged = row.iface.Flagged || flagged
		row.iface.LabeledTransit = row.iface.LabeledTransit || h.HasStack() && !h.Terminal
	}

	for _, ta := range s.facts.analyses {
		a.Patterns[ta.Pattern]++
		if !ta.Interworking() {
			continue
		}
		for _, cl := range ta.Clouds {
			if cl.Kind == core.CloudSR {
				a.CloudSR = count(a.CloudSR, cl.Len)
			} else {
				a.CloudLDP = count(a.CloudLDP, cl.Len)
			}
		}
	}
}

// segmentsAt reports whether any segment covers hop i, and whether a
// strong-flag one does.
func segmentsAt(segs []core.Segment, i int) (flagged, strong bool) {
	for k := range segs {
		if s := &segs[k]; s.Start <= i && i <= s.End {
			flagged = true
			strong = strong || s.Flag.Strong()
		}
	}
	return flagged, strong
}

// count adds one at index k of a histogram slice, growing it as needed.
func count(hist []int, k int) []int {
	if k >= len(hist) {
		hist = append(hist, make([]int, k+1-len(hist))...)
	}
	hist[k]++
	return hist
}

// publish writes the address table into the fold's Agg, and the SR
// ground truth into its result, once per AS.
func (f *fold) publish() {
	a := f.agg
	seen, inAS, sr := 0, 0, 0
	for i := range f.tab.rows {
		row := &f.tab.rows[i]
		if row.seen {
			seen++
		}
		if row.inAS {
			inAS++
		}
		if row.sr {
			sr++
		}
	}
	// Sized up front, so the maps do not rehash as they fill. SREnabled is
	// non-nil even when empty: reflect.DeepEqual, which the Detect and
	// DetectStream equality tests use, tells nil from empty.
	a.FirstVP = make(map[netip.Addr]int, seen)
	a.Ifaces = make(map[netip.Addr]IfaceAgg, inAS)
	f.res.SREnabled = make(map[netip.Addr]bool, sr)
	for i := range f.tab.rows {
		row := &f.tab.rows[i]
		if row.seen {
			a.FirstVP[row.addr] = row.firstVP
		}
		if row.sr {
			f.res.SREnabled[row.addr] = true
		}
		if row.inAS {
			ifc := row.iface
			ifc.Source, ifc.Vendor = row.fp.Source, row.fp.Vendor
			a.Ifaces[row.addr] = ifc
		}
	}
}

// finish drains the final partial batch, publishes the table, and returns
// the completed result.
func (f *fold) finish() (*ASResult, error) {
	if err := f.planBudgetErr(); err != nil {
		return nil, err
	}
	if err := f.flush(); err != nil {
		return nil, err
	}
	f.publish()
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
	return detectStream(ctx, r, cfg, new(foldStore))
}

// detectStream is DetectStream building its batches in store.
func detectStream(ctx context.Context, r io.Reader, cfg Config, store *foldStore) (*ASResult, error) {
	ar, err := archive.NewReader(r)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	done := reg.Span("exp", "stage.detect").Start()
	defer done()
	f := newFold(ctx, cfg, store)
	if err := archive.StreamRecords(ar, f); err != nil {
		return nil, err
	}
	return f.finish()
}

// DetectStreamFile is DetectStream over one shard on disk.
func DetectStreamFile(ctx context.Context, path string, cfg Config) (*ASResult, error) {
	return detectStreamFile(ctx, path, cfg, new(foldStore))
}

func detectStreamFile(ctx context.Context, path string, cfg Config, store *foldStore) (*ASResult, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return detectStream(ctx, file, cfg, store)
}
