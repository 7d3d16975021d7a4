// Command bench is the repository's end-to-end benchmark: four campaign
// workloads driven through the pipeline's public entry points (exp.Run,
// exp.RunSharded, exp.All[*].Run), with correctness checks, end-to-end
// metrics, and a traced run that splits an iteration into per-layer
// metrics. See README.md for the workloads, the metric catalogue and how to
// compare runs.
//
// Usage:
//
//	bench -workload campaign -seed 1 [-seconds 10] [-trace 0|1] [-spans out.jsonl]
//	bench -compare a.jsonl b.jsonl
//
// Every metric is printed as "name value unit"; the last line of standard
// output is the same result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arest/internal/asgen"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is the testable body of the command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: iteration i measures seed+i")
	seconds := fs.Float64("seconds", 10, "how long the timed loop runs (at least one iteration)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
	spansOut := fs.String("spans", "", "traced run: write the recorded spans to this file as JSON lines")
	work := fs.String("work", ".bench_build/work", "scratch directory for archive shards")
	ases := fs.String("ases", "", "comma-separated AS ids to run instead of the 41 analyzed ASes (skips the transcript check)")
	compare := fs.Bool("compare", false, "compare two set files (arguments: a.jsonl b.jsonl) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two set files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout)
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 1
	}
	if !slices.Contains(workloadNames, *workload) {
		return fail("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fail("-trace must be 0 or 1")
	}
	records, err := selectRecords(*ases)
	if err != nil {
		return fail("%v", err)
	}
	transcript := ""
	if *ases == "" {
		transcript = transcriptFile
		if _, err := os.Stat(transcript); err != nil {
			return fail("run from the repository root: %v", err)
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail("%v", err)
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)

	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	r := &runner{wl: *workload, seed: *seed, records: records, workers: workers, dir: dir, transcript: transcript, log: stderr}
	ctx := context.Background()

	// Each phase starts from a collected heap, so garbage left by the last
	// one neither slows the next nor raises its memory peak; every set-up
	// starts without the previous one's reference campaign.
	setups := make([]float64, 0, setupRuns)
	for k := 0; k < setupRuns; k++ {
		r.ref = nil
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(ctx); err != nil {
			return fail("setup: %v", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runtime.GC()
	vals := map[string]float64{}
	decls := endToEnd
	if *trace == 0 {
		iters, rates, err := r.timedLoop(ctx, *seconds)
		if err != nil {
			return fail("%v", err)
		}
		q1, med, q3 := quartiles(iters)
		fmt.Fprintf(stderr, "%s: iter_s median %.4f q1 %.4f q3 %.4f n %d", r.wl, med, q1, q3, len(iters))
		if pct, v, ok := tailPercentile(iters, 10); ok {
			fmt.Fprintf(stderr, " p%.0f %.4f", pct, v)
		}
		fmt.Fprintf(stderr, "; setup_s %v\n", setups)
		vals["iter_s"] = med
		vals["traces_per_s"] = median(rates)
		vals["setup_s"] = median(setups)
		vals["peak_rss_mb"] = peakRSSMB()
	} else {
		decls = perLayer
		var spans []Span
		if vals, spans, err = r.tracedRun(ctx, *seconds); err != nil {
			return fail("%v", err)
		}
		if *spansOut != "" {
			if err := writeSpans(*spansOut, spans); err != nil {
				return fail("spans: %v", err)
			}
		}
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	printResult(stdout, res)
	if !res.Correct {
		return fail("%d of %d operations failed or mismatched", r.failed, r.attempted)
	}
	return 0
}

// timedLoop runs iterations seed, seed+1, ... until seconds have passed
// (at least one) and returns each iteration's wall time and trace rate.
func (r *runner) timedLoop(ctx context.Context, seconds float64) (iters, rates []float64, err error) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		c, d, err := r.runIteration(ctx, i, r.workers)
		if err != nil {
			return nil, nil, err
		}
		iters = append(iters, d.Seconds())
		rates = append(rates, float64(traces(c))/d.Seconds())
	}
	return iters, rates, nil
}

// printResult prints every metric as "name value unit" in name order, then
// the whole result as one JSON line.
func printResult(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %s\n", k, strconv.FormatFloat(res.Metrics[k].Value, 'f', -1, 64), res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result of numbers and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", b)
}

// selectRecords resolves -ases: the analyzed catalogue by default.
func selectRecords(ids string) ([]asgen.Record, error) {
	if ids == "" {
		return asgen.Analyzed(), nil
	}
	var recs []asgen.Record
	for _, s := range strings.Split(ids, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad AS id %q", s)
		}
		rec, ok := asgen.ByID(id)
		if !ok || asgen.ExcludedIDs[id] {
			return nil, fmt.Errorf("AS id %d is not an analyzed AS", id)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
}
