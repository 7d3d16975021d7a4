// Command experiments regenerates the paper's tables and figures by
// running the full campaign pipeline over the Table 5 catalogue (or a
// subset) and rendering each experiment's output.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig8,table3 -vps 6
//	experiments                       # everything, full analyzed catalogue
//
// Shutdown: the first SIGINT/SIGTERM cancels the campaign — in-flight ASes
// drain, complete shards stay on disk — and the process exits with status
// 3 (resumable: re-running the same -snapshot command completes the run).
// A second signal aborts immediately. -deadline bounds the whole run the
// same way; -as-budget is the deterministic per-AS trace budget and
// -stall-timeout arms the wall-clock stall watchdog.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/lifecycle"
	"arest/internal/obs"
)

func main() {
	sigs, stopNotify := lifecycle.Notify()
	defer stopNotify()
	hard := func() {
		fmt.Fprintln(os.Stderr, "experiments: second signal: aborting immediately")
		os.Exit(lifecycle.ExitFailure)
	}
	os.Exit(run(os.Args[1:], sigs, hard, os.Stdout, os.Stderr))
}

// run is the testable body of the command: argv excludes the program name,
// sigs feeds the two-phase shutdown (tests send plain values instead of
// real signals), hard is the second-signal abort hook, and the exit status
// is returned instead of os.Exit'd.
func run(argv []string, sigs <-chan os.Signal, hard func(), stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and exit")
	expIDs := fs.String("exp", "", "comma-separated experiment ids (default: all)")
	asIDs := fs.String("as", "", "comma-separated AS identifiers (default: all analyzed)")
	vps := fs.Int("vps", 16, "vantage points per AS")
	targets := fs.Int("targets", 32, "max targets per AS")
	maxRouters := fs.Int("max-routers", 60, "per-AS topology cap")
	seed := fs.Int64("seed", 20250405, "campaign seed")
	workers := fs.Int("workers", 0, "worker pool size for every pipeline stage (0 = GOMAXPROCS, 1 = sequential)")
	outDir := fs.String("o", "", "write each experiment to <dir>/<id>.txt instead of stdout")
	snapshotDir := fs.String("snapshot", "", "snapshot/resume mode: persist per-AS archive shards under <dir> and skip ASes whose shard is already complete")
	maxASFailures := fs.Int("max-as-failures", 0, "tolerate up to this many failed ASes before exiting non-zero (-1 = unlimited); failed ASes are always reported and excluded from analysis")
	maxTraceFailures := fs.Int("max-trace-failures", 0, "per-AS budget of traces that may fail with a probe error before the AS is quarantined (-1 = unlimited)")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the whole run; on expiry the campaign drains like a first signal and exits with status 3 (resumable)")
	asBudget := fs.Int("as-budget", 0, "deterministic per-AS trace budget: an AS whose plan demands more traces is quarantined before probing, live and on replay (0 = unlimited)")
	stallTimeout := fs.Duration("stall-timeout", 0, "wall-clock watchdog: cancel and quarantine an AS that makes no progress for this long (0 = off)")
	metricsOut := fs.String("metrics", "", "export campaign metrics to <file> (.json = JSON, else summary table, - = stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(argv); err != nil {
		return lifecycle.ExitFailure
	}
	errorf := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
		return lifecycle.ExitFailure
	}

	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return errorf("pprof: %v", err)
		}
		fmt.Fprintf(stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
	}

	if *list {
		for _, e := range exp.All {
			fmt.Fprintf(stdout, "%-9s %s\n          paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return lifecycle.ExitOK
	}

	var selected []exp.Experiment
	if *expIDs == "" {
		selected = exp.All
	} else {
		for _, id := range strings.Split(*expIDs, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				return errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	records := asgen.Analyzed()
	if *asIDs != "" {
		records = nil
		for _, s := range strings.Split(*asIDs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return errorf("bad AS id %q", s)
			}
			rec, ok := asgen.ByID(id)
			if !ok {
				return errorf("unknown AS id %d", id)
			}
			records = append(records, rec)
		}
	}

	cfg := exp.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumVPs = *vps
	cfg.MaxTargets = *targets
	cfg.MaxRouters = *maxRouters
	cfg.Workers = *workers
	cfg.MaxTraceFailures = *maxTraceFailures
	cfg.MaxASTraces = *asBudget
	cfg.StallTimeout = *stallTimeout
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
		cfg.Metrics = reg
	}

	parent := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		parent, cancel = context.WithTimeout(parent, *deadline)
		defer cancel()
	}
	ctx, stopSig := lifecycle.Context(parent, sigs, hard)
	defer stopSig()

	fmt.Fprintf(stderr, "running campaign over %d ASes (%d VPs, <=%d targets each)...\n",
		len(records), cfg.NumVPs, cfg.MaxTargets)
	start := time.Now()
	var c *exp.Campaign
	var err error
	if *snapshotDir != "" {
		var statuses []exp.ShardStatus
		c, statuses, err = exp.RunSharded(ctx, records, cfg, *snapshotDir)
		if statuses != nil {
			resumed, interrupted := 0, 0
			for _, s := range statuses {
				switch s {
				case exp.ShardResumed:
					resumed++
				case exp.ShardInterrupted:
					interrupted++
				}
			}
			fmt.Fprintf(stderr, "snapshot %s: %d/%d ASes resumed from shards, %d measured, %d interrupted\n",
				*snapshotDir, resumed, len(statuses), len(statuses)-resumed-interrupted, interrupted)
		}
	} else {
		c, err = exp.Run(ctx, records, cfg)
	}
	if err != nil {
		if lifecycle.Interrupted(err) {
			fmt.Fprintf(stderr, "experiments: interrupted: %v\n", err)
			if *snapshotDir != "" {
				fmt.Fprintf(stderr, "experiments: complete shards kept under %s; re-run the same command to resume\n", *snapshotDir)
			}
			exportMetrics(reg, *metricsOut, stderr)
			return lifecycle.ExitInterrupted
		}
		return errorf("campaign: %v", err)
	}
	for _, f := range c.Failed {
		fmt.Fprintf(stderr, "failed: %s\n", f)
	}
	total := 0
	for _, r := range c.ASes {
		total += r.TracesSent
	}
	fmt.Fprintf(stderr, "campaign done: %d ASes, %d traces in %v\n\n",
		len(c.ASes), total, time.Since(start).Round(time.Millisecond))
	if code := exportMetrics(reg, *metricsOut, stderr); code != lifecycle.ExitOK {
		return code
	}

	for _, e := range selected {
		body := fmt.Sprintf("=== %s — %s ===\npaper: %s\n\n%s\n", e.ID, e.Title, e.Paper, e.Run(ctx, c))
		if *outDir == "" {
			fmt.Fprint(stdout, body)
			continue
		}
		path := filepath.Join(*outDir, e.ID+".txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return errorf("write %s: %v", path, err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}

	// The failure policy decides the exit code only after every surviving
	// AS's output (and the metrics export) has been rendered: a partially
	// failed campaign still delivers everything it measured.
	if n := len(c.Failed); *maxASFailures >= 0 && n > *maxASFailures {
		return errorf("%d AS(es) failed, budget %d (-max-as-failures)", n, *maxASFailures)
	}
	return lifecycle.ExitOK
}

// exportMetrics writes the registry snapshot (also on the interrupted
// path, so a cancelled run still accounts for what it did).
func exportMetrics(reg *obs.Registry, out string, stderr io.Writer) int {
	if reg == nil {
		return lifecycle.ExitOK
	}
	snap := reg.Snapshot()
	if err := snap.ExportFile(out); err != nil {
		fmt.Fprintf(stderr, "experiments: metrics: %v\n", err)
		return lifecycle.ExitFailure
	}
	if out != "-" {
		fmt.Fprint(stderr, snap.Summary())
	}
	return lifecycle.ExitOK
}
