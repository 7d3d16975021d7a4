// Package obs is the campaign observability layer: a deterministic,
// concurrency-safe metrics registry threaded through every pipeline stage
// (netsim forwarding, probing, alias resolution, fingerprinting, the
// campaign driver) and exported by the CLIs as JSON or a human summary.
//
// Two classes of instruments with different determinism contracts:
//
//   - Counters, gauges and histograms record *events* — probes sent, drops
//     by reason, pair tests pruned. Every event is a pure function of what
//     is measured (never of scheduling), and atomic adds/maxes commute, so
//     their values at any stage boundary are identical at every Workers
//     count (same argument as DESIGN.md §7.2). The campaign equivalence
//     test asserts snapshot equality at Workers 1 vs 8.
//   - Spans record *wall-clock timings* through an injectable clock. They
//     are explicitly excluded from the determinism contract: enabling them
//     never perturbs pipeline output, but their values depend on the
//     machine and the schedule.
//
// All instruments are nil-safe: methods on a nil *Registry or nil
// instrument are no-ops, so library code records unconditionally and only
// pays when a caller actually installed a registry.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds zero values, bucket i holds [2^(i-1), 2^i), the last bucket
// overflows to +Inf.
const histBuckets = 28

// Registry holds one run's instruments, keyed "stage.reason". The zero
// value is not usable; nil is a valid no-op registry.
type Registry struct {
	clock func() time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*Span
}

// New returns an empty registry using the real clock.
func New() *Registry {
	return &Registry{
		clock:    time.Now,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*Span),
	}
}

// SetClock injects a fake clock (tests); it must be called before any Span
// is started.
func (r *Registry) SetClock(fn func() time.Time) {
	if r == nil {
		return
	}
	r.clock = fn
}

func key(stage, reason string) string { return stage + "." + reason }

// Counter is a monotonically increasing event count. Atomic adds commute,
// so counter values are schedule-independent whenever the recorded events
// are.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n; no-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one; no-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns (creating if needed) the counter stage.reason.
func (r *Registry) Counter(stage, reason string) *Counter {
	if r == nil {
		return nil
	}
	k := key(stage, reason)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge records the maximum value observed. Max is commutative and
// associative, so concurrent SetMax calls yield a schedule-independent
// value whenever the observed values are.
type Gauge struct{ v atomic.Uint64 }

// SetMax raises the gauge to n if n is larger; no-op on nil.
func (g *Gauge) SetMax(n uint64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current maximum (0 on nil).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge returns (creating if needed) the max-gauge stage.reason.
func (r *Registry) Gauge(stage, reason string) *Gauge {
	if r == nil {
		return nil
	}
	k := key(stage, reason)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram counts observations into power-of-two buckets. Bucket counts
// and the sum are atomic, so histograms share the counters' determinism
// contract when the observed values do.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value; no-op on nil.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := bits.Len64(v) // 0 for v==0, else floor(log2(v))+1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Histogram returns (creating if needed) the histogram stage.reason.
func (r *Registry) Histogram(stage, reason string) *Histogram {
	if r == nil {
		return nil
	}
	k := key(stage, reason)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Span accumulates wall-clock durations of a repeated pipeline stage.
// Spans are OUTSIDE the determinism contract: values depend on machine and
// schedule.
type Span struct {
	count atomic.Uint64
	ns    atomic.Int64
	clock func() time.Time
}

// Start begins one timed section; the returned func ends it. Safe on nil
// (returns a no-op func).
func (s *Span) Start() func() {
	if s == nil {
		return func() {}
	}
	t0 := s.clock()
	return func() {
		s.count.Add(1)
		s.ns.Add(s.clock().Sub(t0).Nanoseconds())
	}
}

// AddDuration folds an externally measured duration into the span.
func (s *Span) AddDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.count.Add(1)
	s.ns.Add(d.Nanoseconds())
}

// Span returns (creating if needed) the span stage.reason.
func (r *Registry) Span(stage, reason string) *Span {
	if r == nil {
		return nil
	}
	k := key(stage, reason)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.spans[k]
	if !ok {
		s = &Span{clock: r.clock}
		r.spans[k] = s
	}
	return s
}

// Time runs fn inside the span stage.reason (convenience wrapper). On a
// nil registry fn still runs, untimed.
func (r *Registry) Time(stage, reason string, fn func()) {
	done := r.Span(stage, reason).Start()
	fn()
	done()
}

// SchemaVersion identifies the exported snapshot layout; bump on any
// structural change so downstream consumers can detect drift.
const SchemaVersion = "arest.metrics.v1"

// Bucket is one histogram bucket in a snapshot: N observations with
// value < Le (Le == 0 marks the zero bucket).
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// HistogramSnapshot is the exported state of one histogram; only non-empty
// buckets are listed, in ascending bound order.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// SpanSnapshot is the exported state of one span.
type SpanSnapshot struct {
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// Snapshot is a point-in-time copy of every instrument. Counters, Gauges
// and Histograms form the deterministic section; Spans are timing-only.
// encoding/json sorts map keys, so the serialized form is stable.
type Snapshot struct {
	Schema     string                       `json:"schema"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      map[string]SpanSnapshot      `json:"spans,omitempty"`
}

// Snapshot copies the registry's current state. On a nil registry it
// returns an empty (but schema-tagged) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:     SchemaVersion,
		Counters:   map[string]uint64{},
		Gauges:     map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]SpanSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			le := uint64(0)
			if i > 0 {
				le = 1 << uint(i)
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, N: n})
		}
		s.Histograms[k] = hs
	}
	for k, sp := range r.spans {
		s.Spans[k] = SpanSnapshot{Count: sp.count.Load(), TotalNs: sp.ns.Load()}
	}
	return s
}

// Deterministic returns the snapshot restricted to the schedule-independent
// section (counters, gauges, histograms) — the part the parallel-equals-
// sequential campaign test compares across worker counts.
func (s Snapshot) Deterministic() Snapshot {
	return Snapshot{Schema: s.Schema, Counters: s.Counters, Gauges: s.Gauges, Histograms: s.Histograms}
}

// WriteJSON serializes the snapshot as indented, key-sorted JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ExportFile writes the snapshot to path: indented JSON when the name ends
// in ".json", the human-readable summary table otherwise. "-" writes the
// summary to stdout. This is the common backend of the CLIs' -metrics flag.
func (s Snapshot) ExportFile(path string) error {
	if path == "-" {
		_, err := os.Stdout.WriteString(s.Summary())
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return s.WriteJSON(f)
	}
	_, err = f.WriteString(s.Summary())
	return err
}

// stageOf splits "stage.reason" at the first dot.
func stageOf(k string) (stage, reason string) {
	if i := strings.IndexByte(k, '.'); i >= 0 {
		return k[:i], k[i+1:]
	}
	return k, ""
}

// Summary renders the snapshot as a human-readable per-stage table: the
// campaign report operators read after a run.
func (s Snapshot) Summary() string {
	type row struct{ stage, reason, value string }
	var rows []row
	for k, v := range s.Counters {
		st, re := stageOf(k)
		rows = append(rows, row{st, re, fmt.Sprintf("%d", v)})
	}
	for k, v := range s.Gauges {
		st, re := stageOf(k)
		rows = append(rows, row{st, re + " (max)", fmt.Sprintf("%d", v)})
	}
	for k, h := range s.Histograms {
		st, re := stageOf(k)
		mean := float64(0)
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		rows = append(rows, row{st, re + " (hist)", fmt.Sprintf("n=%d mean=%.1f", h.Count, mean)})
	}
	for k, sp := range s.Spans {
		st, re := stageOf(k)
		rows = append(rows, row{st, re + " (span)",
			fmt.Sprintf("n=%d total=%v", sp.Count, time.Duration(sp.TotalNs).Round(time.Microsecond))})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].stage != rows[j].stage {
			return rows[i].stage < rows[j].stage
		}
		return rows[i].reason < rows[j].reason
	})
	var b strings.Builder
	b.WriteString("campaign metrics\n")
	last := ""
	for _, r := range rows {
		st := r.stage
		if st == last {
			st = ""
		} else {
			last = r.stage
		}
		fmt.Fprintf(&b, "  %-12s %-28s %s\n", st, r.reason, r.value)
	}
	return b.String()
}
