package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"arest/internal/alias"
	"arest/internal/anaximander"
	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/bdrmap"
	"arest/internal/core"
	"arest/internal/exp"
	"arest/internal/fingerprint"
	"arest/internal/obs"
	"arest/internal/probe"
)

// mb is the byte count of the MB unit used throughout.
const mb = 1 << 20

// maxSelfGap is the largest share by which the layer self times of a
// traced iteration may miss its wall time (duplicate calls excluded).
const maxSelfGap = 0.05

// recorder keeps a traced run's spans in memory until the run ends. The
// benchmark side is single-goroutine (traced iterations run at Workers=1),
// so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []Span
}

func (rc *recorder) now() int64 { return time.Since(rc.t0).Nanoseconds() }

// span runs fn inside a new span. fn receives the span's id, for children,
// and an attribute map whose entries are recorded on the span.
func (rc *recorder) span(parent int, trace, name string, dup bool, fn func(self int, attrs map[string]float64) error) error {
	id := len(rc.spans)
	rc.spans = append(rc.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Dup: dup, Start: rc.now()})
	attrs := map[string]float64{}
	err := fn(id, attrs)
	s := &rc.spans[id] // fn may have appended children
	s.End = rc.now()
	if len(attrs) > 0 {
		s.Attrs = attrs
	}
	return err
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Probe kinds, told apart by the payload every probe of the kind ends with
// (internal/probe's tracer): IP-ID samples belong to alias resolution,
// echo probes to fingerprinting, everything else to the trace sweep. The
// per-kind exchange counts are cross-checked against probe's counters.
const (
	kindTrace = iota
	kindPing
	kindIPID
	numKinds
)

var (
	kindNames  = [numKinds]string{"trace", "ping", "ipid"}
	pingMarker = []byte("arest-ping")
	ipidMarker = []byte("arest-ipid")
)

// exchangeTimer times every probe.Conn exchange of one measurement, by
// probe kind. It is installed through exp.Config.WrapConn.
type exchangeTimer struct {
	n, ns [numKinds]atomic.Int64
}

func (t *exchangeTimer) wrap(_ asgen.Record, _ int, c probe.Conn) probe.Conn {
	return timedConn{conn: c, timer: t}
}

func (t *exchangeTimer) attrs(a map[string]float64) {
	for k, name := range kindNames {
		a["exchanges."+name] = float64(t.n[k].Load())
		a["exchange_ns."+name] = float64(t.ns[k].Load())
	}
}

type timedConn struct {
	conn  probe.Conn
	timer *exchangeTimer
}

func (c timedConn) Exchange(ctx context.Context, src netip.Addr, wire []byte) ([]byte, float64, error) {
	k := kindTrace
	switch {
	case bytes.HasSuffix(wire, ipidMarker):
		k = kindIPID
	case bytes.HasSuffix(wire, pingMarker):
		k = kindPing
	}
	t0 := time.Now()
	reply, rtt, err := c.conn.Exchange(ctx, src, wire)
	c.timer.ns[k].Add(time.Since(t0).Nanoseconds())
	c.timer.n[k].Add(1)
	return reply, rtt, err
}

// regAttrs copies a registry's counters, and its span totals as
// "<name>_ns", into a.
func regAttrs(reg *obs.Registry, a map[string]float64) {
	snap := reg.Snapshot()
	for k, v := range snap.Counters {
		a[k] = float64(v)
	}
	for k, s := range snap.Spans {
		a[k+"_ns"] = float64(s.TotalNs)
	}
}

// runtimeSample is the subset of runtime/metrics the ledger reads.
type runtimeSample struct {
	allocBytes, allocObjects, gcCPU, idleCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
		a.gcCPU - b.gcCPU, a.idleCPU - b.idleCPU, a.totalCPU - b.totalCPU}
}

// tracedRun is the --trace 1 run: rounds of three iterations at one seed
// each — untraced at full workers (runtime metrics), untraced at Workers=1
// (the tracing-overhead baseline) and traced at Workers=1 — until seconds
// have passed. Each per-layer metric is the median over the rounds.
func (r *runner) tracedRun(ctx context.Context, seconds float64) (map[string]float64, []Span, error) {
	rc := &recorder{t0: time.Now()}
	var measured []Span
	if r.wl == "replay" {
		if err := r.traceSetupMeasure(ctx, rc); err != nil {
			return nil, nil, err
		}
		measured = append([]Span(nil), rc.spans...)
	}
	rounds := map[string][]float64{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		vals, err := r.tracedRound(ctx, rc, i, measured)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range vals {
			rounds[k] = append(rounds[k], v)
		}
	}
	out := make(map[string]float64, len(rounds))
	for k, vs := range rounds {
		out[k] = median(vs)
	}
	return out, rc.spans, nil
}

// traceSetupMeasure measures every AS once at the workload's settings with
// the measure-side layers traced. Replay's timed work never measures, so
// its ledger takes those layers from this copy of its set-up measurement.
func (r *runner) traceSetupMeasure(ctx context.Context, rc *recorder) error {
	base := r.config(r.seed, 1)
	return rc.span(-1, r.wl+"/setup", "setup", false, func(self int, _ map[string]float64) error {
		for _, rec := range r.records {
			if _, err := r.measure(ctx, rc, self, asTrace(r.wl, rec), rec, base); err != nil {
				return err
			}
		}
		return nil
	})
}

func asTrace(wl string, rec asgen.Record) string { return fmt.Sprintf("%s/as-%d", wl, rec.ID) }

// tracedRound runs one round of tracedRun and returns its ledger.
func (r *runner) tracedRound(ctx context.Context, rc *recorder, i int, measured []Span) (map[string]float64, error) {
	if err := r.prepare(ctx, i); err != nil { // keep replay's shard measurement out of the runtime deltas
		return nil, err
	}
	before := readRuntime()
	c, _, err := r.runIteration(ctx, i, r.workers)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().sub(before)

	ref, w1, err := r.runIteration(ctx, i, 1)
	if err != nil {
		return nil, err
	}

	if err := r.prepare(ctx, i); err != nil {
		return nil, err
	}
	from := len(rc.spans)
	traced, bad, err := r.tracedIteration(ctx, rc, i)
	if err != nil {
		return nil, err
	}
	r.account(traced, bad+mismatches(traced, ref), fmt.Sprintf("traced iteration %d", i))
	spans := rc.spans[from:]
	if measured == nil {
		measured = spans
	}
	if err := r.checkLedger(spans); err != nil {
		r.failed++
		fmt.Fprintf(r.log, "%s traced iteration %d: %v\n", r.wl, i, err)
	}
	return layerMetrics(spans, measured, rt, traces(c), w1), nil
}

// tracedIteration runs iteration i at Workers=1 as per-AS calls into the
// pipeline's public stage functions, each inside a span, followed per AS by
// duplicate calls that time the layers those functions hide. It returns the
// campaign and the number of ASes whose duplicate calls disagreed with the
// pipeline.
func (r *runner) tracedIteration(ctx context.Context, rc *recorder, i int) (*exp.Campaign, int, error) {
	base := r.config(r.seed+int64(i), 1)
	if r.wl == "snapshot" {
		if err := os.MkdirAll(r.snapshotDir(), 0o755); err != nil {
			return nil, 0, err
		}
	}
	c := &exp.Campaign{Cfg: base}
	bad := 0
	trace := r.wl + "/iteration"
	err := rc.span(-1, trace, "iteration", false, func(self int, _ map[string]float64) error {
		for _, rec := range r.records {
			err := rc.span(self, asTrace(r.wl, rec), "as", false, func(as int, _ map[string]float64) error {
				res, data, err := r.stages(ctx, rc, as, asTrace(r.wl, rec), rec, base)
				if err != nil {
					return err
				}
				c.ASes = append(c.ASes, res)
				ok, err := r.duplicates(ctx, rc, as, asTrace(r.wl, rec), rec, data, res)
				if !ok {
					bad++
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		if err := rc.span(self, trace, "exp.merge", false, func(int, map[string]float64) error {
			c.MergedAgg()
			return nil
		}); err != nil {
			return err
		}
		// Only the campaign workload renders; the others render as a
		// duplicate call so every workload's ledger has the query layer.
		for _, e := range exp.All {
			if err := rc.span(self, trace, "exp.query", r.wl != "campaign", func(int, map[string]float64) error {
				e.Run(ctx, c)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return c, bad, err
}

// measure runs exp.MeasureAS in a span carrying the AS's obs counters and
// stage totals plus the exchange timings by probe kind.
func (r *runner) measure(ctx context.Context, rc *recorder, parent int, trace string, rec asgen.Record, base exp.Config) (*archive.Data, error) {
	reg, timer := obs.New(), &exchangeTimer{}
	cfg := base
	cfg.Metrics = reg
	cfg.WrapConn = timer.wrap
	var data *archive.Data
	err := rc.span(parent, trace, "exp.measure", false, func(_ int, a map[string]float64) error {
		var err error
		data, err = exp.MeasureAS(ctx, rec, cfg)
		regAttrs(reg, a)
		timer.attrs(a)
		return err
	})
	if err != nil {
		return nil, err
	}
	return data, base.TraceBudgetErr(data)
}

// stages runs one AS through the workload's stage functions: measure then
// detect (campaign, sweep); measure, write the shard and stream it back
// (snapshot); stream the measured shard (replay). data is nil for replay.
func (r *runner) stages(ctx context.Context, rc *recorder, parent int, trace string, rec asgen.Record, base exp.Config) (*exp.ASResult, *archive.Data, error) {
	var data *archive.Data
	if r.wl != "replay" {
		var err error
		if data, err = r.measure(ctx, rc, parent, trace, rec, base); err != nil {
			return nil, nil, err
		}
	}
	reg := obs.New()
	cfg := base
	cfg.Metrics = reg
	var res *exp.ASResult
	detect := func(name string, fn func() (*exp.ASResult, error)) error {
		return rc.span(parent, trace, name, false, func(_ int, a map[string]float64) error {
			var err error
			res, err = fn()
			regAttrs(reg, a)
			return err
		})
	}
	var err error
	switch r.wl {
	case "campaign", "sweep":
		err = detect("exp.detect", func() (*exp.ASResult, error) { return exp.Detect(ctx, data, cfg) })
	case "snapshot":
		path := exp.ShardPath(r.snapshotDir(), rec)
		err = rc.span(parent, trace, "archive.write", false, func(int, map[string]float64) error {
			return archive.WriteFile(path, data)
		})
		if err == nil {
			err = detect("exp.detect_stream", func() (*exp.ASResult, error) { return exp.DetectStreamFile(ctx, path, cfg) })
		}
	default: // replay
		path := exp.ShardPath(r.shardDir(), rec)
		err = detect("exp.detect_stream", func() (*exp.ASResult, error) { return exp.DetectStreamFile(ctx, path, cfg) })
	}
	return res, data, err
}

// duplicates times, on one AS's archived data, the layers the stage
// functions call internally, plus every layer the workload bypasses, so
// each workload's ledger covers every layer. Each call is a duplicate span:
// it is excluded from the self-time check and from trace.overhead. Where a
// duplicate can reproduce a pipeline output it is compared, and ok is
// false on any difference.
func (r *runner) duplicates(ctx context.Context, rc *recorder, parent int, trace string, rec asgen.Record, data *archive.Data, res *exp.ASResult) (ok bool, err error) {
	dup := func(name string, fn func(a map[string]float64) error) {
		if err == nil {
			err = rc.span(parent, trace, name, true, func(_ int, a map[string]float64) error { return fn(a) })
		}
	}
	ok = true
	var shard []byte
	if data == nil { // replay: the measured shard is the input
		dup("archive.read", func(map[string]float64) error {
			var err error
			shard, err = os.ReadFile(exp.ShardPath(r.shardDir(), rec))
			return err
		})
		dup("archive.decode", func(a map[string]float64) error {
			var err error
			data, err = decode(shard, a)
			return err
		})
		if err != nil {
			return false, err
		}
	}
	m := data.Meta
	trs := data.Traces()
	var w *asgen.World
	dup("asgen.build", func(map[string]float64) error {
		w = asgen.Build(m.Record, m.Dep, m.NumVPs, m.Seed)
		return nil
	})
	var rib *anaximander.RIB
	dup("anaximander.plan", func(a map[string]float64) error {
		rib = anaximander.CollectRIB(w)
		a["targets"] = float64(len(anaximander.BuildPlan(rib, m.Record.ASN, anaximander.Options{MaxTargets: m.MaxTargets}).Targets))
		return nil
	})
	dup("bdrmap.annotate", func(map[string]float64) error {
		ok = ok && sameBorders(bdrmap.Annotate(trs, rib, data.Aliases), data.Borders)
		return nil
	})
	var enc bytes.Buffer
	dup("archive.encode", func(a map[string]float64) error {
		err := archive.WriteData(&enc, data)
		a["bytes"] = float64(enc.Len())
		return err
	})
	if shard != nil {
		ok = ok && bytes.Equal(shard, enc.Bytes()) // the encoding is canonical
	} else {
		dup("archive.decode", func(a map[string]float64) error {
			_, err := decode(enc.Bytes(), a)
			return err
		})
	}
	if r.wl != "snapshot" {
		dup("archive.write", func(map[string]float64) error {
			return archive.WriteFile(filepath.Join(r.dir, "duplicate.arest"), data)
		})
	}
	if r.wl == "campaign" || r.wl == "sweep" {
		dup("exp.detect_stream", func(a map[string]float64) error {
			reg := obs.New()
			cfg := r.config(m.Seed, 1)
			cfg.Metrics = reg
			got, err := exp.DetectStream(ctx, bytes.NewReader(enc.Bytes()), cfg)
			regAttrs(reg, a)
			ok = ok && err == nil && reflect.DeepEqual(got.Agg, res.Agg)
			return err
		})
	}
	dup("core.analyze", func(a map[string]float64) error {
		analyze(data, trs, a)
		return nil
	})
	if r.wl != "campaign" {
		dup("alias.resolve", func(a map[string]float64) error {
			return resolveAliases(ctx, w, trs, a)
		})
	}
	return ok, err
}

// decode is archive.ReadData over b, recording the bytes, traces and heap
// objects it took.
func decode(b []byte, a map[string]float64) (*archive.Data, error) {
	before := readRuntime().allocObjects
	d, err := archive.ReadData(bytes.NewReader(b))
	a["allocs"] = readRuntime().allocObjects - before
	a["bytes"] = float64(len(b))
	if d != nil {
		n := 0
		for _, ts := range d.PerVP {
			n += len(ts)
		}
		a["traces"] = float64(n)
	}
	return d, err
}

// analyze times core.Detector.Analyze alone over every AS-restricted path,
// annotated as exp's Detect fold annotates it.
func analyze(data *archive.Data, trs []*probe.Trace, a map[string]float64) {
	ann := fingerprint.NewAnnotator(data.SNMP, data.TTL)
	asOf := bdrmap.Annotation(data.Borders).AsFunc()
	det := core.NewDetector()
	var ns int64
	paths := 0
	for _, tr := range trs {
		p := core.BuildPath(tr, ann, asOf).RestrictToAS(data.Meta.Record.ASN)
		if len(p.Hops) == 0 {
			continue
		}
		t0 := time.Now()
		det.Analyze(p)
		ns += time.Since(t0).Nanoseconds()
		paths++
	}
	a["paths"] = float64(paths)
	a["analyze_ns"] = float64(ns)
}

// resolveAliases runs alias resolution as exp's measurement does at the
// default candidate cap, on a fresh world: the workloads that bypass the
// alias stage still get an alias layer in their ledger.
func resolveAliases(ctx context.Context, w *asgen.World, trs []*probe.Trace, a map[string]float64) error {
	seen := map[netip.Addr]bool{}
	var cands []netip.Addr
	for _, tr := range trs {
		for i := range tr.Hops {
			h := &tr.Hops[i]
			if h.Responded() && !seen[h.Addr] {
				seen[h.Addr] = true
				cands = append(cands, h.Addr)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })
	cands = cands[:min(len(cands), exp.DefaultConfig().AliasCandidateCap)]
	reg := obs.New()
	pinger := probe.NewTracer(probe.NetsimConn{Net: w.Net}, w.VPs[0])
	pinger.Metrics = probe.NewMetrics(reg)
	cfg := alias.DefaultConfig()
	cfg.Workers = 1
	cfg.Metrics = reg
	cfg.ConflictKey = func(addr netip.Addr) (uint64, bool) {
		rt, ok := w.Net.RouterByAddr(addr)
		if !ok {
			return 0, false
		}
		return uint64(rt.ID), true
	}
	_, err := alias.Resolve(ctx, cands, pinger, cfg)
	regAttrs(reg, a)
	return err
}

// sameBorders compares a re-derived bdrmap annotation with the archived
// one (an empty archive map may be nil).
func sameBorders(got bdrmap.Annotation, want map[netip.Addr]int) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	return reflect.DeepEqual(map[netip.Addr]int(got), want)
}

// total sums the wall time of the spans named name, in nanoseconds.
func total(spans []Span, name string) float64 {
	var t float64
	for _, s := range spans {
		if s.Name == name {
			t += float64(s.Dur())
		}
	}
	return t
}

// ownTotal is total over the spans that are the workload's own work.
func ownTotal(spans []Span, name string) float64 {
	var t float64
	for _, s := range spans {
		if s.Name == name && !s.Dup {
			t += float64(s.Dur())
		}
	}
	return t
}

// attr sums attribute key over the spans named name.
func attr(spans []Span, name, key string) float64 {
	var t float64
	for _, s := range spans {
		if s.Name == name {
			t += s.Attrs[key]
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics of one traced round: it is
// the traced iteration's spans, measured the spans holding the
// workload's measurements (it itself, except for replay), rt the runtime
// deltas of the full-workers iteration that measured n traces, and w1 the
// untraced Workers=1 iteration time.
func layerMetrics(it, measured []Span, rt runtimeSample, n int, w1 time.Duration) map[string]float64 {
	meas := func(key string) float64 { return attr(measured, "exp.measure", key) }
	var exch, exchNs float64
	for _, k := range kindNames {
		exch += meas("exchanges." + k)
		exchNs += meas("exchange_ns." + k)
	}
	stageTrace := meas("exp.stage.trace_ns")
	ownAlias := meas("exp.stage.alias_ns")
	measureNs := total(measured, "exp.measure")
	// Alias numbers come from the workload's own alias stage, or from the
	// duplicate call where the workload bypasses it.
	aliasSpans, aliasName, aliasNs := measured, "exp.measure", ownAlias
	if total(it, "alias.resolve") > 0 {
		aliasSpans, aliasName, aliasNs = it, "alias.resolve", total(it, "alias.resolve")
	}
	tested := attr(aliasSpans, aliasName, "alias.pairs.tested")
	decNs, decBytes, decTraces := total(it, "archive.decode"), attr(it, "archive.decode", "bytes"), attr(it, "archive.decode", "traces")
	stream, busy := total(it, "exp.detect_stream"), attr(it, "exp.detect_stream", "exp.workers.busy_ns")
	var dups int64
	for _, s := range it {
		if s.Dup {
			dups += s.Dur()
		}
	}
	return map[string]float64{
		"asgen.build_ms":                  total(it, "asgen.build") / 1e6,
		"anaximander.plan_ms":             total(it, "anaximander.plan") / 1e6,
		"netsim.exchanges":                exch,
		"netsim.exchange_us":              ratio(exchNs/1e3, exch),
		"netsim.exchange_s":               exchNs / 1e9,
		"netsim.forwarded":                meas("netsim.forwarded"),
		"probe.sweep_s":                   stageTrace / 1e9,
		"probe.us_per_trace":              ratio(stageTrace/1e3, meas("exp.jobs.trace")),
		"probe.retries":                   meas("probe.retries"),
		"probe.useful_ratio":              ratio(meas("probe.replies"), meas("probe.sent.udp")),
		"fingerprint.collect_s":           meas("exp.stage.fingerprint_ns") / 1e9,
		"fingerprint.pings":               meas("probe.pings"),
		"fingerprint.classified_ratio":    ratio(meas("fingerprint.classified"), meas("fingerprint.candidates")),
		"alias.resolve_s":                 aliasNs / 1e9,
		"alias.share":                     ratio(ownAlias, measureNs),
		"alias.ipid_samples":              attr(aliasSpans, aliasName, "probe.ipid_samples"),
		"alias.pairs_tested":              tested,
		"alias.useful_ratio":              ratio(attr(aliasSpans, aliasName, "alias.pairs.aliased"), tested),
		"bdrmap.annotate_ms":              total(it, "bdrmap.annotate") / 1e6,
		"archive.encode_s":                total(it, "archive.encode") / 1e9,
		"archive.write_s":                 total(it, "archive.write") / 1e9,
		"archive.decode_s":                decNs / 1e9,
		"archive.decode_mb_per_s":         ratio(decBytes/mb, decNs/1e9),
		"archive.bytes_per_trace":         ratio(decBytes, decTraces),
		"archive.decode_allocs_per_trace": ratio(attr(it, "archive.decode", "allocs"), decTraces),
		"exp.measure_s":                   measureNs / 1e9,
		"exp.detect_s":                    (ownTotal(it, "exp.detect") + ownTotal(it, "exp.detect_stream")) / 1e9,
		"exp.detect_stream_s":             stream / 1e9,
		"exp.analyze_busy_s":              busy / 1e9,
		"exp.decode_share":                1 - ratio(busy, stream),
		"exp.query_ms":                    total(it, "exp.query") / 1e6,
		"exp.merge_us":                    total(it, "exp.merge") / 1e3,
		"core.analyze_us_per_path":        ratio(attr(it, "core.analyze", "analyze_ns")/1e3, attr(it, "core.analyze", "paths")),
		"runtime.alloc_mb_per_ktrace":     ratio(rt.allocBytes/mb, float64(n)/1e3),
		"runtime.gc_cpu_share":            ratio(rt.gcCPU, rt.totalCPU-rt.idleCPU),
		"runtime.cpu_util":                ratio(rt.totalCPU-rt.idleCPU, rt.totalCPU),
		"trace.overhead":                  float64(it[0].Dur()-dups)/float64(w1) - 1,
	}
}

// ledger splits a traced iteration's wall time into layer self times. A
// measurement's self time is split by its stage totals and exchange
// timings (sequential at Workers=1): netsim is the time inside exchanges,
// probe/fingerprint/alias their stage minus their own exchanges, and
// measure.other the rest (world build, plan, bdrmap). A detect span splits
// into core (analysis worker busy time) and detect.fold. Duplicate calls
// are not part of the ledger; wall is the iteration's time without them.
func ledger(it []Span) (rows map[string]int64, wall int64) {
	rows = map[string]int64{}
	self := selfTimes(it)
	var dups int64
	for i, s := range it {
		a := func(k string) int64 { return int64(s.Attrs[k]) }
		switch {
		case s.Dup:
			dups += s.Dur()
		case s.Name == "exp.measure":
			rows["netsim"] += a("exchange_ns.trace") + a("exchange_ns.ping") + a("exchange_ns.ipid")
			rows["probe"] += a("exp.stage.trace_ns") - a("exchange_ns.trace")
			rows["fingerprint"] += a("exp.stage.fingerprint_ns") - a("exchange_ns.ping")
			rows["alias"] += a("exp.stage.alias_ns") - a("exchange_ns.ipid")
			rows["measure.other"] += self[i] - a("exp.stage.trace_ns") - a("exp.stage.fingerprint_ns") - a("exp.stage.alias_ns")
		case s.Name == "exp.detect" || s.Name == "exp.detect_stream":
			rows["core"] += a("exp.workers.busy_ns")
			rows["detect.fold"] += self[i] - a("exp.workers.busy_ns")
		case s.Name == "iteration" || s.Name == "as":
			rows["bench"] += self[i]
		default:
			rows[s.Name] += self[i]
		}
	}
	return rows, it[0].Dur() - dups
}

// checkLedger enforces the ledger's invariants on a traced iteration: no
// layer has negative self time, the self times sum to within maxSelfGap of
// the wall time, and the exchange attribution agrees with probe's counters.
func (r *runner) checkLedger(it []Span) error {
	rows, wall := ledger(it)
	names := make([]string, 0, len(rows))
	var sum int64
	for k, v := range rows {
		names = append(names, k)
		sum += v
	}
	sort.Strings(names)
	fmt.Fprintf(r.log, "%s ledger (self time, Workers=1, wall %.3fs without duplicate calls):\n", r.wl, float64(wall)/1e9)
	for _, k := range names {
		fmt.Fprintf(r.log, "  %-16s %9.4fs %6.1f%%\n", k, float64(rows[k])/1e9, 100*ratio(float64(rows[k]), float64(wall)))
	}
	for _, k := range names {
		if rows[k] < 0 {
			return fmt.Errorf("layer %s has negative self time %dns", k, rows[k])
		}
	}
	if gap := math.Abs(float64(sum-wall)) / float64(wall); gap > maxSelfGap {
		return fmt.Errorf("self times sum to %dns, %.1f%% off the wall time %dns", sum, 100*gap, wall)
	}
	for _, s := range it {
		if s.Name != "exp.measure" {
			continue
		}
		if s.Attrs["exchanges.ipid"] != s.Attrs["probe.ipid_samples"] || s.Attrs["exchanges.ping"] != s.Attrs["probe.pings"] {
			return fmt.Errorf("%s: exchange kinds disagree with probe counters", s.Trace)
		}
	}
	return nil
}
