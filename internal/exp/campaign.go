// Package exp reproduces the paper's evaluation as an explicit staged
// pipeline — Measure → Archive → Annotate → Detect → Aggregate:
//
//   - Measure (MeasureAS) probes a synthetic world from many vantage
//     points and collects every side-channel the analysis needs: raw
//     traces, fingerprint annotations (TTL + SNMPv3), alias sets, bdrmap
//     borders, and the simulator's ground truth. Its output is an
//     archive.Data — the only value that crosses the storage boundary.
//   - Archive (archive.WriteData / archive.ReadData) persists that value
//     as a versioned, CRC-checked record stream; cmd/tntsim ends here.
//   - Annotate + Detect (Detect, DetectStream) are a pure function of the
//     archived records: no *asgen.World, no netsim, no generator state.
//     Both are fronts for one streaming fold (stream.go): side records
//     seal the annotation state, then traces are analyzed in bounded
//     batches and folded into a compact, mergeable Agg (agg.go).
//     DetectStream runs straight off archive bytes without materializing
//     the trace set; Detect replays an in-memory Data through the same
//     record sequence, so live runs and archive replays are bit-identical
//     by construction.
//   - Aggregate (aggregates.go, experiments.go) regenerates every table
//     and figure of the paper as pure queries over the folded Agg.
package exp

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"arest/internal/alias"
	"arest/internal/anaximander"
	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/bdrmap"
	"arest/internal/core"
	"arest/internal/fingerprint"
	"arest/internal/obs"
	"arest/internal/par"
	"arest/internal/probe"
)

// Config scales the campaign. The paper used 50 VPs and hundreds of
// thousands of traces; the defaults here reproduce the same pipeline at
// laptop scale.
type Config struct {
	Seed int64
	// NumVPs is the number of vantage points per AS (paper: 50).
	NumVPs int
	// MaxTargets caps each AS's Anaximander plan.
	MaxTargets int
	// FlowsPerTarget probes each target under several Paris flow IDs.
	FlowsPerTarget int
	// AliasCandidateCap bounds the MIDAR candidate set per AS, keeping the
	// lowest addresses. It is a resource bound: alias probing is linear in
	// the candidates plus the pairs discovery keeps (DESIGN.md §7, item 3,
	// has the cap curve). 0 disables alias resolution.
	AliasCandidateCap int
	// MaxRouters, when non-zero, clamps the per-AS topology size.
	MaxRouters int
	// Workers bounds the concurrency of every pipeline stage — the AS
	// pool, per-AS trace sweeps, fingerprint echoes, alias probing, and
	// detection (0 = GOMAXPROCS, 1 = fully sequential). Campaign
	// output is identical at every worker count: stages write into
	// index-addressed slices and alias probing replays the sequential
	// probe order on every shared IP-ID counter.
	Workers int
	// Metrics, when non-nil, receives instrumentation from every stage:
	// netsim forwarding/drop counters, probe accounting, alias and
	// fingerprint counters, and per-AS/per-stage spans. The counter section
	// is identical at every Workers count (obs package doc); spans record
	// wall-clock time and are excluded from that contract. A nil registry
	// costs only nil checks.
	Metrics *obs.Registry
	// KeepPaths opts into retained mode: ASResult additionally carries the
	// per-path results, each with its restricted path. Off (the default),
	// Detect's output is the compact Agg — O(results) memory — which every
	// aggregate method is computed from either way.
	KeepPaths bool
	// MaxTraceFailures is the per-AS budget of traces that may halt with
	// probe.HaltError before the AS is quarantined: 0 (the default)
	// tolerates none, a negative value tolerates any number. The Detect fold
	// applies it to the archived degradation record, so a replayed shard
	// re-derives the live run's accept/quarantine decision.
	MaxTraceFailures int
	// WrapConn, when non-nil, wraps each vantage point's probe connection
	// before measurement — the fault-injection seam. It receives the
	// catalogue record and VP index (VP addresses repeat across ASes, so
	// the address alone cannot target one AS's VP). The wrapper must keep
	// Exchange deterministic in the probe bytes for the determinism
	// contract to hold; probe.FaultConn does.
	WrapConn func(rec asgen.Record, vpIndex int, conn probe.Conn) probe.Conn
	// MaxASTraces is the deterministic per-AS deadline: the largest planned
	// trace count an AS may demand before it is quarantined (0 = unlimited).
	// The budget is applied to the *plan* — before a single probe is sent —
	// and re-derived from the archived VP records on replay, so live and
	// resumed runs reach the same verdict (DESIGN.md §14). This is the
	// inside-the-determinism-contract half of the deadline story; wall-clock
	// deadlines live outside it (StallTimeout, and context deadlines at the
	// CLIs).
	MaxASTraces int
	// StallTimeout arms the wall-clock watchdog: an AS whose pipeline makes
	// no progress (no trace completion, no analysis batch, no stage
	// boundary) for this long is cancelled and quarantined with a
	// StallError, instead of hanging the campaign (0 = no watchdog). The
	// watchdog runs on the obs clock and sits outside the determinism
	// contract: it never fires in a healthy run, and when it fires the AS
	// lands in Campaign.Failed through the same containment as any other
	// stage error.
	StallTimeout time.Duration
	// Watchdog, when non-nil, supervises instead of a StallTimeout-started
	// one — the test seam: tests inject a watchdog on a fake clock and
	// drive Scan explicitly. The caller owns its scan schedule (Run/
	// RunSharded do not call Start on an injected watchdog).
	Watchdog *obs.Watchdog

	// progress is the supervised heartbeat of the AS currently measured
	// under this (per-AS) config copy; nil when unsupervised. Installed by
	// supervised(), pulsed at every trace completion, analysis batch, and
	// stage boundary.
	progress *obs.Heartbeat
}

// beat records supervised progress; a no-op without a watchdog.
func (c Config) beat() { c.progress.Beat() }

// supervised derives one AS's execution context: when a watchdog is active
// the AS gets a cancellable child context whose cancellation cause is a
// StallError, plus a config copy carrying the registered heartbeat. finish
// must be called when the AS's pipeline returns (it retires the heartbeat
// and releases the context).
func (c Config) supervised(ctx context.Context, wd *obs.Watchdog, rec asgen.Record) (context.Context, Config, func()) {
	if wd == nil {
		return ctx, c, func() {}
	}
	asCtx, cancel := context.WithCancelCause(ctx)
	hb := wd.Register(fmt.Sprintf("as.%d", rec.ID), func() {
		cancel(&StallError{ASID: rec.ID, Quiet: c.StallTimeout})
	})
	c.progress = hb
	return asCtx, c, func() {
		hb.Done()
		cancel(nil)
	}
}

// startWatchdog resolves the campaign's watchdog: the injected one (caller
// drives its scans), a ticker-driven one when StallTimeout is set, or none.
// stop halts the ticker goroutine (a no-op for injected/absent watchdogs).
func (c Config) startWatchdog() (wd *obs.Watchdog, stop func()) {
	if c.Watchdog != nil {
		return c.Watchdog, func() {}
	}
	if c.StallTimeout <= 0 {
		return nil, func() {}
	}
	wd = obs.NewWatchdog(c.Metrics, c.StallTimeout)
	return wd, wd.Start(0)
}

// workers resolves the configured concurrency bound.
func (c Config) workers() int { return par.Workers(c.Workers) }

// DefaultConfig returns a laptop-scale campaign configuration.
func DefaultConfig() Config {
	return Config{
		Seed:              20250405,
		NumVPs:            16,
		MaxTargets:        32,
		FlowsPerTarget:    1,
		AliasCandidateCap: 120,
		MaxRouters:        60,
	}
}

// ASResult is the analysis output for one targeted AS. It is built by
// Detect as a pure function of an archive.Data — it holds no reference to
// the measurement-side *asgen.World, so a replayed archive yields a result
// deep-equal to the live run's.
type ASResult struct {
	Record asgen.Record
	// Dep is the archived ground-truth deployment configuration (e.g. the
	// provisioned SRGB the inference extension is validated against).
	Dep asgen.Deployment
	// SREnabled is the simulator's exported ground truth: the interface
	// addresses of SR-enabled routers inside the target AS.
	SREnabled map[netip.Addr]bool
	// Agg is the folded analysis: every aggregate the experiments consume,
	// accumulated one trace at a time (see agg.go). It is always populated
	// and is the only per-trace state Detect retains by default.
	Agg *Agg
	// Results is retained mode (Config.KeepPaths): the AReST result of
	// every trace that enters the target AS, in stream order, each carrying
	// its annotated path restricted to that AS (bdrmapIT delimitation). It
	// is nil when KeepPaths is off.
	Results []*core.Result
	// TracesSent counts probes-carrying traces issued for this AS.
	TracesSent int
}

// MeasureAS runs the measurement stage for one catalogue record with its
// derived deployment: the trace sweep, fingerprint echo probing, alias
// probing, and bdrmap annotation, plus the ground-truth export. The
// returned archive.Data is everything downstream analysis ever sees.
//
// Cancelling ctx aborts the measurement at the next trace/TTL boundary and
// returns the cause; an aborted measurement yields no Data at all, so
// nothing cancellation-shaped can reach the archive.
//
// The Data owns its memory: its traces live in a store of their own.
func MeasureAS(ctx context.Context, rec asgen.Record, cfg Config) (*archive.Data, error) {
	return measureWithDeployment(ctx, rec, cfg.deployment(rec), cfg, new(measureStore))
}

// deployment derives rec's deployment at the configured seed, with its
// topology clamped to MaxRouters.
func (c Config) deployment(rec asgen.Record) asgen.Deployment {
	dep := asgen.DeploymentFor(rec, c.Seed)
	if c.MaxRouters > 0 && dep.Routers > c.MaxRouters {
		dep.Routers = c.MaxRouters
	}
	return dep
}

// measureStore is the trace storage an AS's sweep is written into: one
// Trace per trace job, indexed by job, and the slab their hops and label
// stacks live in. measureWithDeployment resets it at every AS, keeping its
// storage, so the traces of a Data measured into it are valid only until
// the store's next measurement (foldStore documents who hands it on). The
// zero value is ready.
type measureStore struct {
	traces []probe.Trace
	slab   probe.Slab
}

// reset readies the store for an AS of n trace jobs and returns its n
// zeroed traces. The previous AS's traces are cleared, and the slab keeps
// only the chunks they used, so nothing the store retains points into
// dropped memory.
func (m *measureStore) reset(n int) []probe.Trace {
	clear(m.traces)
	m.traces = slices.Grow(m.traces[:0], n)[:n]
	m.slab.Reset()
	return m.traces
}

// measureWithDeployment measures against an explicit deployment (used by
// the longitudinal extension to sweep SRFrac), writing the traces into
// store.
func measureWithDeployment(ctx context.Context, rec asgen.Record, dep asgen.Deployment, cfg Config, store *measureStore) (*archive.Data, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	reg := cfg.Metrics
	asDone := reg.Span("exp", fmt.Sprintf("as.%d", rec.ID)).Start()
	defer asDone()
	w := asgen.Build(rec, dep, cfg.NumVPs, cfg.Seed)
	w.Net.Instrument(reg)
	rib := anaximander.CollectRIB(w)
	plan := anaximander.BuildPlan(rib, rec.ASN, anaximander.Options{MaxTargets: cfg.MaxTargets})

	data := &archive.Data{
		Meta: archive.Meta{
			Format:         archive.FormatV3,
			Record:         rec,
			Dep:            dep,
			Seed:           cfg.Seed,
			NumVPs:         cfg.NumVPs,
			MaxTargets:     cfg.MaxTargets,
			FlowsPerTarget: cfg.FlowsPerTarget,
		},
	}
	workers := cfg.workers()
	reg.Counter("exp", "ases").Inc()
	// busy accumulates per-job worker time across the fan-out stages;
	// utilization is busy time over wall time × workers.
	busy := reg.Span("exp", "workers.busy")

	// Trace sweep: every (vantage point, target, flow) probe is an
	// independent job — traces never observe shared counter state — so the
	// whole sweep fans out flat across VPs into pre-sized per-VP slots.
	type traceJob struct {
		vpIdx, slot int
		tgt         netip.Addr
		flow        uint16
	}
	flows := max(1, cfg.FlowsPerTarget)
	jobs := make([]traceJob, 0, len(w.VPs)*len(plan.Targets)*flows)
	pm := probe.NewMetrics(reg)
	// conn builds one vantage point's probe connection, threading it
	// through the fault-injection seam when configured.
	conn := func(vpIdx int) probe.Conn {
		var c probe.Conn = probe.NetsimConn{Net: w.Net}
		if cfg.WrapConn != nil {
			c = cfg.WrapConn(rec, vpIdx, c)
		}
		return c
	}
	tracers := make([]*probe.Tracer, len(w.VPs))
	data.VPs = make([]netip.Addr, len(w.VPs))
	data.PerVP = make([][]*probe.Trace, len(w.VPs))
	for vpIdx, vp := range w.VPs {
		tracers[vpIdx] = probe.NewTracer(conn(vpIdx), vp)
		tracers[vpIdx].Metrics = pm
		slot := 0
		for _, tgt := range plan.Shuffled(vpIdx) {
			for flow := 0; flow < flows; flow++ {
				jobs = append(jobs, traceJob{vpIdx, slot, tgt, uint16(flow)})
				slot++
			}
		}
		data.VPs[vpIdx] = vp
		data.PerVP[vpIdx] = make([]*probe.Trace, slot)
	}
	// Deterministic deadline: the budget is applied to the plan, before a
	// single probe is sent. len(jobs) equals the archived trace count, so a
	// replay re-derives this exact verdict from the shard alone.
	if err := cfg.ASBudgetErr(len(jobs)); err != nil {
		return nil, err
	}
	jobErrs := make([]error, len(jobs))
	trs := store.reset(len(jobs))
	reg.Counter("exp", "jobs.trace").Add(uint64(len(jobs)))
	traceDone := reg.Span("exp", "stage.trace").Start()
	sweepErr := par.ForEach(ctx, workers, len(jobs), func(i int) {
		defer busy.Start()()
		j := jobs[i]
		if err := tracers[j.vpIdx].TraceInto(ctx, &trs[i], &store.slab, j.tgt, j.flow); err != nil {
			jobErrs[i] = fmt.Errorf("trace %s from %s: %w", j.tgt, w.VPs[j.vpIdx], err)
			return
		}
		data.PerVP[j.vpIdx][j.slot] = &trs[i]
		cfg.beat()
	})
	traceDone()
	if sweepErr != nil {
		return nil, sweepErr
	}
	// Trace probe failures are fail-soft (recorded as HaltError traces, see
	// probe.Tracer.Trace), so a surviving job error is a non-probe failure
	// and still aborts the AS — a single errored job must not leave a nil
	// trace slot behind.
	for _, err := range jobErrs {
		if err != nil {
			return nil, err
		}
	}
	traces := data.Traces()

	// Degradation accounting: traces the sweep had to halt with an error.
	// The record rides in the archive so replays see the same degradation,
	// and it is written only when failures occurred — a fault-free
	// measurement's archive bytes are unchanged.
	byVP := make([]int, len(data.PerVP))
	failedTraces := 0
	for vpIdx, ts := range data.PerVP {
		for _, tr := range ts {
			if tr.Failed() {
				failedTraces++
				byVP[vpIdx]++
			}
		}
	}
	if failedTraces > 0 {
		data.Degraded = &archive.Degraded{
			FailedTraces: failedTraces,
			TotalTraces:  len(traces),
			ByVP:         byVP,
		}
		reg.Counter("exp", "traces.failed").Add(uint64(failedTraces))
	}

	cfg.beat()

	// Fingerprinting: TTL signatures need echo probes; the SNMPv3 dataset
	// is the (simulated) public one.
	pinger := probe.NewTracer(conn(0), w.VPs[0])
	pinger.Metrics = pm
	var fpErr error
	reg.Time("exp", "stage.fingerprint", func() {
		data.TTL, fpErr = fingerprint.CollectTTL(ctx, traces, pinger, workers, reg)
	})
	if fpErr != nil {
		return nil, fpErr
	}
	data.SNMP = fingerprint.SNMPDataset(w.Net)
	cfg.beat()

	// Alias resolution feeds bdrmap.
	if cfg.AliasCandidateCap > 0 {
		seen := map[netip.Addr]bool{}
		var cands []netip.Addr
		for _, tr := range traces {
			for i := range tr.Hops {
				h := &tr.Hops[i]
				if h.Responded() && !seen[h.Addr] {
					seen[h.Addr] = true
					cands = append(cands, h.Addr)
				}
			}
		}
		// Sort before capping so the kept candidate set is stable
		// regardless of trace-collection order.
		sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })
		if len(cands) > cfg.AliasCandidateCap {
			cands = cands[:cfg.AliasCandidateCap]
		}
		acfg := alias.DefaultConfig()
		acfg.Workers = workers
		acfg.Metrics = reg
		// Ground-truth conflict keys let alias probes of disjoint routers
		// run concurrently; the keys only order probing, never results.
		acfg.ConflictKey = func(a netip.Addr) (uint64, bool) {
			r, ok := w.Net.RouterByAddr(a)
			if !ok {
				return 0, false
			}
			return uint64(r.ID), true
		}
		var aliasErr error
		reg.Time("exp", "stage.alias", func() {
			data.Aliases, aliasErr = alias.Resolve(ctx, cands, pinger, acfg)
		})
		if aliasErr != nil && ctx.Err() != nil {
			// A cancelled fan-out is an abort, not an untrusted partition:
			// surface the cause so the AS is skipped, not quarantined.
			return nil, context.Cause(ctx)
		}
		if aliasErr != nil {
			// An errored alias partition cannot be trusted (an errored
			// probe is not a silent router), and bdrmap consumes it next —
			// so alias probe errors are AS-fatal, not degradation.
			return nil, fmt.Errorf("alias resolution: %w", aliasErr)
		}
		if len(data.Aliases) == 0 {
			data.Aliases = nil // canonical empty form for archive roundtrips
		}
	}
	cfg.beat()
	data.Borders = bdrmap.Annotate(traces, rib, data.Aliases)

	// Ground-truth export: every interface address of an SR-enabled router
	// in the target AS (World.SRRouter), so offline replays can score
	// Table 3 without the world.
	for _, r := range w.Routers {
		if !w.SRRouter[r.ID] {
			continue
		}
		data.SREnabled = append(data.SREnabled, r.Interfaces()...)
	}
	sort.Slice(data.SREnabled, func(i, j int) bool { return data.SREnabled[i].Less(data.SREnabled[j]) })
	return data, nil
}

// Detect runs the Annotate and Detect stages over archived campaign data:
// vendor fingerprints and bdrmap owners are applied per hop, traces are
// delimited to the target AS, and AReST analyzes each path. It is a pure
// function of data (plus the Workers/Metrics knobs), shared verbatim by
// live runs and archive replays. The trace-failure (MaxTraceFailures) and
// plan (MaxASTraces) budgets are applied inside the fold, so a degraded or
// over-plan Data fails with the StageMeasure-attributed budget error.
//
// It is a thin client of the streaming fold in stream.go: data.Visit
// replays the in-memory Data through the exact record sequence its
// encoding contains, so Detect here and DetectStream over the encoded
// bytes are deep-equal by construction — verdicts included.
func Detect(ctx context.Context, data *archive.Data, cfg Config) (*ASResult, error) {
	return detect(ctx, data, cfg, new(foldStore))
}

// detect is Detect building its batches in store.
func detect(ctx context.Context, data *archive.Data, cfg Config, store *foldStore) (*ASResult, error) {
	done := cfg.Metrics.Span("exp", "stage.detect").Start()
	defer done()
	f := newFold(ctx, cfg, store)
	if err := data.Visit(ownedTraces{f}); err != nil {
		return nil, err
	}
	return f.finish()
}

// RunAS executes the full staged pipeline for one catalogue record:
// Measure, then Annotate+Detect over the in-memory campaign data (which
// applies the trace-failure budget). The archive stage is a
// pass-through here; writing the data out and replaying it through Detect
// yields a deep-equal result (the roundtrip-equivalence test pins this).
// Errors carry their pipeline stage (StageError); a cancelled ctx surfaces
// as its cause (see IsInterrupt), never as a stage fault.
func RunAS(ctx context.Context, rec asgen.Record, cfg Config) (*ASResult, error) {
	return runASWithDeployment(ctx, rec, cfg.deployment(rec), cfg, new(foldStore))
}

// runASWithDeployment runs measure+detect against an explicit deployment
// (longitudinal extension), folding in store.
func runASWithDeployment(ctx context.Context, rec asgen.Record, dep asgen.Deployment, cfg Config, store *foldStore) (*ASResult, error) {
	data, err := measureWithDeployment(ctx, rec, dep, cfg, &store.measured)
	if err != nil {
		return nil, stageErr(StageMeasure, err)
	}
	res, err := detect(ctx, data, cfg, store)
	if err != nil {
		return nil, stageErr(StageDetect, err)
	}
	return res, nil
}

// Campaign is a full multi-AS run. ASes holds the successful analyses in
// catalogue order; Failed holds the quarantined ASes (also in catalogue
// order) with the stage and error that took each one down.
type Campaign struct {
	Cfg    Config
	ASes   []*ASResult
	Failed []ASFailure
}

// Run executes the campaign over the given catalogue records. Records with
// too little coverage in the paper (ExcludedIDs) are skipped, mirroring
// the coverage filter of Sec. 5. Per-AS pipelines are independent (each AS
// is its own world), so they run concurrently; results keep catalogue
// order and the output is bit-identical to a sequential run.
//
// Failures are contained per AS: an errored AS lands in Campaign.Failed
// with its stage and error, and every other AS's result is identical to a
// run without the fault. The error return is reserved for campaign-level
// failures and is nil even when ASes failed — callers apply their own
// policy over Failed (the CLIs expose it as -max-as-failures).
//
// Cancelling ctx interrupts the campaign: in-flight ASes abort at their
// next trace/TTL boundary and unstarted ones never begin. Interrupted ASes
// are skipped — not quarantined — so the returned partial Campaign holds
// only complete results and Run reports the cancellation cause. When
// Config arms a watchdog (StallTimeout/Watchdog), a stalled AS is
// cancelled individually and lands in Failed with a StallError while the
// rest of the campaign proceeds.
func Run(ctx context.Context, records []asgen.Record, cfg Config) (*Campaign, error) {
	c, _, err := fanOut(ctx, records, cfg, func(ctx context.Context, rec asgen.Record, cfg Config, store *foldStore) (*ASResult, ShardStatus, error) {
		res, err := runASWithDeployment(ctx, rec, cfg.deployment(rec), cfg, store)
		return res, ShardMeasured, err
	})
	return c, err
}

// fanOut is the campaign fan-out Run and RunSharded share: it runs step for
// every kept record on the AS worker pool, each AS under its own supervised
// context and config and folding in its worker's store, then classifies the
// outcomes in catalogue order. The returned statuses parallel the kept
// records: step's status for a completed AS, ShardInterrupted for one the
// cancellation skipped, ShardFailed for one quarantined into
// Campaign.Failed.
func fanOut(ctx context.Context, records []asgen.Record, cfg Config,
	step func(ctx context.Context, rec asgen.Record, cfg Config, store *foldStore) (*ASResult, ShardStatus, error),
) (*Campaign, []ShardStatus, error) {
	kept := keptRecords(records)
	results := make([]*ASResult, len(kept))
	statuses := make([]ShardStatus, len(kept))
	errs := make([]error, len(kept))
	wd, stopWD := cfg.startWatchdog()
	defer stopWD()
	stores := make([]foldStore, cfg.workers()) // one per AS worker, handed from AS to AS
	fanErr := par.ForEachWorker(ctx, cfg.workers(), len(kept), func(w, i int) {
		asCtx, asCfg, finish := cfg.supervised(ctx, wd, kept[i])
		defer finish()
		results[i], statuses[i], errs[i] = step(asCtx, kept[i], asCfg, &stores[w])
	})

	c := &Campaign{Cfg: cfg}
	interrupted := 0
	for i, rec := range kept {
		switch {
		case errs[i] == nil && results[i] != nil:
			c.ASes = append(c.ASes, results[i])
		case errs[i] == nil:
			// Never claimed before cancellation reached the pool.
			statuses[i] = ShardInterrupted
			interrupted++
		case IsInterrupt(errs[i]) && ctx.Err() != nil:
			// Campaign-level interrupt: a resumed run completes this AS
			// identically, so recording it as Failed would make the failure
			// list depend on interrupt timing.
			statuses[i] = ShardInterrupted
			interrupted++
		default:
			statuses[i] = ShardFailed
			c.Failed = append(c.Failed, ASFailure{Record: rec, Stage: FailureStage(errs[i]), Err: errs[i]})
		}
	}
	// Failure counts are a pure function of the catalogue and the
	// (deterministic) faults, so exp.ases.failed sits inside the
	// determinism contract.
	if len(c.Failed) > 0 {
		cfg.Metrics.Counter("exp", "ases.failed").Add(uint64(len(c.Failed)))
	}
	if fanErr != nil || interrupted > 0 {
		// exp.cancelled once per interrupted run, exp.shards.interrupted
		// for every AS that was skipped and left to a resume.
		cfg.Metrics.Counter("exp", "cancelled").Inc()
		if interrupted > 0 {
			cfg.Metrics.Counter("exp", "shards.interrupted").Add(uint64(interrupted))
		}
		if fanErr == nil {
			fanErr = context.Cause(ctx)
		}
		return c, statuses, fanErr
	}
	return c, statuses, nil
}

// keptRecords applies the Sec. 5 coverage filter.
func keptRecords(records []asgen.Record) []asgen.Record {
	var kept []asgen.Record
	for _, rec := range records {
		if !asgen.ExcludedIDs[rec.ID] {
			kept = append(kept, rec)
		}
	}
	return kept
}

// MergedAgg folds every AS's aggregate into one campaign-level Agg,
// merging in catalogue (AS-ID) order. Merge is commutative, so the order
// only matters for reading the code, not the result; campaign-wide
// experiments (Figs. 11–12) consume this instead of walking retained
// per-AS results.
func (c *Campaign) MergedAgg() *Agg {
	m := NewAgg()
	for _, r := range c.ASes {
		if r.Agg == nil {
			continue
		}
		m.Merge(r.Agg)
		c.Cfg.Metrics.Counter("exp", "agg.merges").Inc()
	}
	return m
}

// ByID returns the AS result with the given paper identifier.
func (c *Campaign) ByID(id int) (*ASResult, bool) {
	for _, r := range c.ASes {
		if r.Record.ID == id {
			return r, true
		}
	}
	return nil, false
}
