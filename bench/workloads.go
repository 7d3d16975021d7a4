package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"arest/internal/asgen"
	"arest/internal/exp"
)

// The campaign workload must reproduce cmd/experiments' committed output
// (a path relative to the repository root) at the default seed.
const transcriptFile = "experiments_output.txt"

var transcriptSeed = exp.DefaultConfig().Seed

// runner is one benchmark process: one workload at one seed, plus the
// correctness accounting that every phase feeds. An operation is one AS
// pipeline (or one shard replay); failed counts Campaign.Failed entries,
// missing ASes and correctness mismatches.
type runner struct {
	wl      string
	seed    int64
	records []asgen.Record
	workers int
	// dir is this process's private scratch directory; shards live here.
	dir string
	// transcript is the experiments_output.txt the campaign workload must
	// reproduce at transcriptSeed; "" skips that check (AS subsets).
	transcript string
	log        io.Writer

	attempted, failed int

	// ref is what later iterations must deep-equal: the warm-up campaign
	// (sweep) or the run that measured the current shards at refSeed
	// (replay).
	ref     *exp.Campaign
	refSeed int64
}

// config is the workload's campaign configuration at one seed.
func (r *runner) config(seed int64, workers int) exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	if r.wl != "campaign" {
		// Trace-sweep bound: no alias resolution, four Paris flows per
		// target, so the sweep and netsim forwarding dominate.
		cfg.AliasCandidateCap = 0
		cfg.FlowsPerTarget = 4
	}
	return cfg
}

func (r *runner) snapshotDir() string { return filepath.Join(r.dir, "snapshot") }
func (r *runner) shardDir() string    { return filepath.Join(r.dir, "shards") }

// prepare does the untimed work before iteration i: a snapshot iteration
// writes into a fresh directory, and a replay iteration needs the shards
// of its seed, measured once per seed. Replaying another seed's shards in
// every iteration keeps one seed's layout from setting a whole run's time.
func (r *runner) prepare(ctx context.Context, i int) error {
	switch r.wl {
	case "snapshot":
		return os.RemoveAll(r.snapshotDir())
	case "replay":
		if seed := r.seed + int64(i); r.ref == nil || r.refSeed != seed {
			return r.measureShards(ctx, seed)
		}
	}
	return nil
}

// measureShards measures fresh replay shards at seed; the measuring run is
// what every replay of them must equal.
func (r *runner) measureShards(ctx context.Context, seed int64) error {
	if err := os.RemoveAll(r.shardDir()); err != nil {
		return err
	}
	ref, st, err := exp.RunSharded(ctx, r.records, r.config(seed, r.workers), r.shardDir())
	if err != nil {
		return err
	}
	r.account(ref, unexpected(st, exp.ShardMeasured), fmt.Sprintf("shard measurement at seed %d", seed))
	r.ref, r.refSeed = ref, seed
	return nil
}

// iteration runs workload iteration i, the timed unit of work, at seed
// r.seed+i. It returns the campaign and how many ASes took an unexpected
// shard path.
func (r *runner) iteration(ctx context.Context, i, workers int) (*exp.Campaign, int, error) {
	cfg := r.config(r.seed+int64(i), workers)
	switch r.wl {
	case "campaign":
		c, err := exp.Run(ctx, r.records, cfg)
		if err != nil {
			return nil, 0, err
		}
		render(ctx, c)
		return c, 0, nil
	case "sweep":
		c, err := exp.Run(ctx, r.records, cfg)
		return c, 0, err
	case "snapshot":
		c, st, err := exp.RunSharded(ctx, r.records, cfg, r.snapshotDir())
		return c, unexpected(st, exp.ShardMeasured), err
	default: // replay
		c, st, err := exp.RunSharded(ctx, r.records, cfg, r.shardDir())
		return c, unexpected(st, exp.ShardResumed), err
	}
}

// check is the per-iteration correctness check: the first sweep iteration
// repeats the warm-up's seed and must fold to the same aggregates, and
// every replay pass must equal the run that measured its shards.
func (r *runner) check(i int, c *exp.Campaign) int {
	if r.ref == nil || r.wl == "sweep" && i != 0 {
		return 0
	}
	return mismatches(c, r.ref)
}

// setup is one set-up: the untimed warm-up iteration, the workload's
// correctness checks and, for replay, the measurement of the first shards.
func (r *runner) setup(ctx context.Context) error {
	switch r.wl {
	case "campaign":
		if r.transcript != "" {
			return r.checkTranscript(ctx) // doubles as the warm-up
		}
		_, _, err := r.runIteration(ctx, 0, r.workers)
		return err
	case "sweep":
		c, _, err := r.runIteration(ctx, 0, r.workers)
		r.ref = c
		return err
	case "snapshot":
		c, _, err := r.runIteration(ctx, 0, r.workers)
		if err != nil {
			return err
		}
		mem, err := exp.Run(ctx, r.records, r.config(r.seed, r.workers))
		if err != nil {
			return err
		}
		r.account(mem, mismatches(c, mem), "sharded run vs in-memory run")
		return nil
	default: // replay: prepare measures the shards
		_, _, err := r.runIteration(ctx, 0, r.workers)
		return err
	}
}

// runIteration prepares and runs iteration i, then checks and accounts for
// it; d is the wall time of the iteration alone.
func (r *runner) runIteration(ctx context.Context, i, workers int) (c *exp.Campaign, d time.Duration, err error) {
	if err := r.prepare(ctx, i); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	c, bad, err := r.iteration(ctx, i, workers)
	d = time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s iteration %d: %w", r.wl, i, err)
	}
	r.account(c, bad+r.check(i, c), fmt.Sprintf("iteration %d", i))
	return c, d, nil
}

// account records one campaign's operations: every requested AS is one,
// and each AS that failed, went missing or mismatched is a failed one.
func (r *runner) account(c *exp.Campaign, mismatched int, what string) {
	bad := min(len(r.records), len(r.records)-len(c.ASes)+mismatched)
	r.attempted += len(r.records)
	r.failed += bad
	for _, f := range c.Failed {
		fmt.Fprintf(r.log, "%s %s: failed: %s\n", r.wl, what, f)
	}
	if mismatched > 0 {
		fmt.Fprintf(r.log, "%s %s: %d correctness mismatches\n", r.wl, what, mismatched)
	}
}

// checkTranscript runs the default campaign at the transcript seed,
// renders every experiment and requires the bytes of the transcript.
func (r *runner) checkTranscript(ctx context.Context) error {
	want, err := os.ReadFile(r.transcript)
	if err != nil {
		return fmt.Errorf("transcript check: %w", err)
	}
	c, err := exp.Run(ctx, r.records, r.config(transcriptSeed, r.workers))
	if err != nil {
		return err
	}
	bad := 0
	if render(ctx, c) != string(want) {
		bad = 1
	}
	r.account(c, bad, "transcript at seed "+fmt.Sprint(transcriptSeed))
	return nil
}

// render is every experiment as cmd/experiments prints it.
func render(ctx context.Context, c *exp.Campaign) string {
	var b strings.Builder
	for _, e := range exp.All {
		fmt.Fprintf(&b, "=== %s — %s ===\npaper: %s\n\n%s\n", e.ID, e.Title, e.Paper, e.Run(ctx, c))
	}
	return b.String()
}

// mismatches counts the ASes of got whose folded aggregate differs from
// want's (or that want lacks), plus want's ASes missing from got; if no AS
// differs but the merged aggregates do, that is one mismatch.
func mismatches(got, want *exp.Campaign) int {
	n := max(0, len(want.ASes)-len(got.ASes))
	for _, g := range got.ASes {
		w, ok := want.ByID(g.Record.ID)
		if !ok || !reflect.DeepEqual(g.Agg, w.Agg) {
			n++
		}
	}
	if n == 0 && !reflect.DeepEqual(got.MergedAgg(), want.MergedAgg()) {
		n = 1
	}
	return n
}

// unexpected counts shard statuses other than want.
func unexpected(st []exp.ShardStatus, want exp.ShardStatus) int {
	n := 0
	for _, s := range st {
		if s != want {
			n++
		}
	}
	return n
}

// traces is the number of traces a campaign measured or analyzed.
func traces(c *exp.Campaign) int {
	n := 0
	for _, r := range c.ASes {
		n += r.TracesSent
	}
	return n
}
