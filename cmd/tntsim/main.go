// Command tntsim runs the simulated TNT measurement campaign against one
// synthetic AS from the paper's Table 5 catalogue and writes the collected
// campaign — traces plus fingerprint/alias/bdrmap annotations and ground
// truth — as an arest.archive.v3 record stream (side data ahead of the
// traces, so replays can analyze it as a one-pass stream), ready for
// cmd/arest to re-analyze offline.
//
// Usage:
//
//	tntsim -as 46 -vps 6 -targets 24 -seed 1 -o esnet.arest
//
// Shutdown: the first SIGINT/SIGTERM cancels the measurement (no partial
// archive is ever written — the output is produced only from a complete
// measurement) and exits with status 3; a second signal aborts
// immediately. -deadline bounds the run the same way; -as-budget is the
// deterministic trace budget and -stall-timeout arms the stall watchdog.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/lifecycle"
	"arest/internal/obs"
)

func main() {
	sigs, stopNotify := lifecycle.Notify()
	defer stopNotify()
	hard := func() {
		fmt.Fprintln(os.Stderr, "tntsim: second signal: aborting immediately")
		os.Exit(lifecycle.ExitFailure)
	}
	os.Exit(run(os.Args[1:], sigs, hard, os.Stdout, os.Stderr))
}

// run is the testable body of the command (see cmd/experiments): signals
// come from an injected channel and the exit status is returned.
func run(argv []string, sigs <-chan os.Signal, hard func(), stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tntsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asID := fs.Int("as", 46, "paper AS identifier (1-60, see Table 5)")
	vps := fs.Int("vps", 6, "number of vantage points")
	targets := fs.Int("targets", 24, "max targets per Anaximander plan")
	flows := fs.Int("flows", 1, "Paris flows per target")
	seed := fs.Int64("seed", 20250405, "campaign seed")
	out := fs.String("o", "", "output file (default stdout)")
	list := fs.Bool("list", false, "list the AS catalogue and exit")
	metricsOut := fs.String("metrics", "", "export campaign metrics to <file> (.json = JSON, else summary table, - = stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	maxTraceFailures := fs.Int("max-trace-failures", 0, "budget of traces that may fail with a probe error before the AS counts as failed (-1 = unlimited)")
	maxASFailures := fs.Int("max-as-failures", 0, "0 = exit non-zero when the AS exceeds its trace-failure budget; >=1 = tolerate it (the archive is written either way)")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the run; on expiry the measurement drains like a first signal and exits with status 3")
	asBudget := fs.Int("as-budget", 0, "deterministic trace budget: quarantine the AS before probing if its plan demands more traces (0 = unlimited)")
	stallTimeout := fs.Duration("stall-timeout", 0, "wall-clock watchdog: cancel the measurement if it makes no progress for this long (0 = off)")
	if err := fs.Parse(argv); err != nil {
		return lifecycle.ExitFailure
	}
	errorf := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "tntsim: "+format+"\n", args...)
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
		for _, r := range asgen.Catalogue {
			excl := ""
			if asgen.ExcludedIDs[r.ID] {
				excl = " (excluded: insufficient coverage)"
			}
			fmt.Fprintf(stdout, "#%-3d AS%-7d %-18s %-8s cisco=%-5v survey=%-5v%s\n",
				r.ID, r.ASN, r.Name, r.Category, r.CiscoConfirmed, r.SurveyConfirm, excl)
		}
		return lifecycle.ExitOK
	}
	rec, ok := asgen.ByID(*asID)
	if !ok {
		return errorf("unknown AS identifier %d (1-60)", *asID)
	}
	cfg := exp.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumVPs = *vps
	cfg.MaxTargets = *targets
	cfg.FlowsPerTarget = *flows
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

	data, err := exp.MeasureAS(ctx, rec, cfg)
	if err != nil {
		if lifecycle.Interrupted(err) {
			fmt.Fprintf(stderr, "tntsim: interrupted: %v (no archive written; re-run to measure)\n", err)
			return lifecycle.ExitInterrupted
		}
		return errorf("campaign failed: %v", err)
	}
	// The trace-failure budget never suppresses the archive: a degraded
	// measurement is still evidence, and the written shard replays its
	// accept/quarantine decision deterministically. The verdict only
	// decides the exit code, below.
	budgetErr := cfg.TraceBudgetErr(data)
	if d := data.Degraded; d != nil {
		fmt.Fprintf(stderr, "degraded: %d/%d traces failed with probe errors\n",
			d.FailedTraces, d.TotalTraces)
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return errorf("create %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	if err := archive.WriteData(w, data); err != nil {
		return errorf("write archive: %v", err)
	}
	traces := data.Traces()
	distinct := map[netip.Addr]bool{}
	for _, tr := range traces {
		for i := range tr.Hops {
			if tr.Hops[i].Responded() {
				distinct[tr.Hops[i].Addr] = true
			}
		}
	}
	fmt.Fprintf(stderr, "AS#%d %s: %d traces from %d VPs (%d distinct IPs observed)\n",
		rec.ID, rec.Name, len(traces), *vps, len(distinct))
	if reg != nil {
		snap := reg.Snapshot()
		if err := snap.ExportFile(*metricsOut); err != nil {
			return errorf("metrics: %v", err)
		}
		if *metricsOut != "-" {
			fmt.Fprint(stderr, snap.Summary())
		}
	}
	if budgetErr != nil && *maxASFailures < 1 {
		return errorf("AS#%d %s quarantined: %v (raise -max-as-failures or -max-trace-failures to tolerate)",
			rec.ID, rec.Name, budgetErr)
	}
	return lifecycle.ExitOK
}
