package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2, 10}, [3]float64{1.25, 2.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(m, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, m, q3, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		pct, v  float64
		present bool
	}{
		{20, 50, 10, true}, // 20 samples: the median is the highest resolvable
		{30, 200.0 / 3, 20, true},
		{11, 100.0 / 11, 1, true},
		{10, 0, 0, false}, // nothing has ten samples beyond it
	} {
		pct, v, ok := tailPercentile(seq(c.n), 10)
		if ok != c.present || (ok && (!near(pct, c.pct) || v != c.v)) {
			t.Errorf("n=%d: tailPercentile = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.v, c.present)
		}
	}
}

// TestSelfTimesOverlappingTree: children that overlap each other count
// once, a child running past its parent is clipped, and grandchildren are
// charged to their own parent only.
func TestSelfTimesOverlappingTree(t *testing.T) {
	spans := []Span{
		{ID: 10, Parent: -1, Start: 0, End: 100},
		{ID: 11, Parent: 10, Start: 10, End: 40},
		{ID: 12, Parent: 10, Start: 30, End: 60},
		{ID: 13, Parent: 10, Start: 90, End: 120},
		{ID: 14, Parent: 11, Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

// TestLedgerSplitsMeasurement: a measurement's self time splits into its
// layers by its stage and exchange attributes, duplicate calls stay out,
// and the rows sum to the iteration's wall time without them.
func TestLedgerSplitsMeasurement(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "iteration", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "as", Start: 0, End: 900},
		{ID: 2, Parent: 1, Name: "exp.measure", Start: 0, End: 600, Attrs: map[string]float64{
			"exp.stage.trace_ns": 300, "exp.stage.fingerprint_ns": 50, "exp.stage.alias_ns": 200,
			"exchange_ns.trace": 100, "exchange_ns.ping": 10, "exchange_ns.ipid": 150,
		}},
		{ID: 3, Parent: 1, Name: "exp.detect", Start: 600, End: 700, Attrs: map[string]float64{"exp.workers.busy_ns": 40}},
		{ID: 4, Parent: 1, Name: "asgen.build", Start: 700, End: 880, Dup: true},
		{ID: 5, Parent: 0, Name: "exp.query", Start: 900, End: 990},
	}
	rows, wall := ledger(spans)
	want := map[string]int64{
		"netsim": 260, "probe": 200, "fingerprint": 40, "alias": 50, "measure.other": 50,
		"core": 40, "detect.fold": 60, "exp.query": 90, "bench": 10 + 20,
	}
	var sum int64
	for k, v := range rows {
		sum += v
		if want[k] != v {
			t.Errorf("row %s = %d, want %d", k, v, want[k])
		}
	}
	if wall != 1000-180 || sum != wall {
		t.Errorf("wall %d, rows sum %d; want both 820", wall, sum)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "iter_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "traces_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	for _, c := range []struct {
		name string
		m    metricDecl
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"slower", lower, steady, scale(steady, 1.2), verdictWorse},
		{"faster", lower, steady, scale(steady, 0.8), verdictWithin},
		{"lower rate", higher, steady, scale(steady, 0.8), verdictWorse},
		{"noisy", lower, steady, []float64{0.7, 1.0, 1.3, 0.8, 1.2, 1.0}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{2.0, 3.0, 2.5, 2.2}, steady, verdictWithin},
		{"no runs", lower, steady, nil, verdictUnresolved},
	} {
		if got := compareValues(c.a, c.b, c.m); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestRunCompare drives -compare over two set files: a worse pair fails
// the comparison and an unresolved one is named.
func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	line := func(wl string, iter, rate float64) string {
		return `{"workload":"` + wl + `","seed":1,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{` +
			`"iter_s":{"value":` + ftoa(iter) + `,"unit":"s"},"traces_per_s":{"value":` + ftoa(rate) + `,"unit":"1/s"},` +
			`"peak_rss_mb":{"value":40,"unit":"MB"},"setup_s":{"value":1,"unit":"s"}}}}`
	}
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", line("sweep", 1.00, 100), line("sweep", 1.01, 99), line("sweep", 0.99, 101))
	same := write("same.jsonl", line("sweep", 1.00, 100), line("sweep", 1.02, 98), line("sweep", 0.98, 102))
	slow := write("slow.jsonl", line("sweep", 1.30, 77), line("sweep", 1.31, 76), line("sweep", 1.29, 78))
	var out strings.Builder
	if code := runCompare(a, same, &out); code != 0 {
		t.Errorf("same runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(a, slow, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower runs: exit %d, want 1\n%s", code, out.String())
	}
	noisy := write("noisy.jsonl", line("sweep", 0.5, 100), line("sweep", 1.5, 99), line("sweep", 1.0, 101))
	out.Reset()
	if code := runCompare(a, noisy, &out); code != 0 || !strings.Contains(out.String(), "unresolved: [sweep/iter_s]") {
		t.Errorf("noisy runs: exit %d, want 0 naming sweep/iter_s\n%s", code, out.String())
	}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
