package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads printed here match the ones computed
// from the same values elsewhere. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	n, m := 4, len(d)+1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound is compared against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// tailPercentile is the highest percentile of xs that still has at least
// beyond samples above it, and the sample at that rank: a timing is
// reported as its median and this percentile (choosing-metrics §1). With
// 20 samples and beyond=10 it is the median; with 10 or fewer there is none.
func tailPercentile(xs []float64, beyond int) (pct, v float64, ok bool) {
	n := len(xs)
	if n <= beyond {
		return 0, 0, false
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	rank := n - beyond // 1-based rank with exactly beyond samples after it
	return 100 * float64(rank) / float64(n), d[rank-1], true
}

// Span is one timed call recorded by the benchmark: a layer boundary with
// the span that caused it (Parent, -1 for a root) and a trace id shared by
// the spans of one unit of work (workload/AS). Dup marks a duplicate call
// made only to time a layer: it is not part of the workload's own work.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Dup    bool               `json:"dup,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Dur is the span's wall time in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover. Child
// intervals are clipped to the parent and overlapping children count once.
func selfTimes(spans []Span) []int64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// Comparison verdicts for one (metric, workload) pair.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is the outcome of comparing one metric on one workload across
// two sets of runs.
type compareRow struct {
	Workload, Metric string
	MedA, MedB       float64
	SpreadA, SpreadB float64
	Change           float64 // (MedB-MedA)/MedA, signed
	Verdict          string
	NA, NB           int
	Bound            float64
}

// compareValues judges set b against set a for one metric
// (choosing-metrics §6.5): worse when b's median is worse than a's by more
// than the bound; unresolved when either set's spread is wider than the
// bound, unless every run of b reads better than every run of a.
func compareValues(a, b []float64, m metricDecl) compareRow {
	row := compareRow{Metric: m.Name, Bound: m.Bound, NA: len(a), NB: len(b)}
	row.MedA, row.MedB = median(a), median(b)
	row.SpreadA, row.SpreadB = spread(a), spread(b)
	row.Change = (row.MedB - row.MedA) / math.Abs(row.MedA)
	lower := m.Better == "lower"
	worse := row.Change > m.Bound
	if !lower {
		worse = row.Change < -m.Bound
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		row.Verdict = verdictUnresolved
	case math.Max(row.SpreadA, row.SpreadB) > m.Bound && !allBetter(a, b, lower):
		row.Verdict = verdictUnresolved
	case worse:
		row.Verdict = verdictWorse
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if lowerIsBetter {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// setLine is one line of a set file: one benchmark run's tagged result.
type setLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// readSet loads a set file (JSON lines written by sets.sh) into
// workload -> metric -> per-run values.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l setLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		if out[l.Workload] == nil {
			out[l.Workload] = map[string][]float64{}
		}
		for name, v := range l.Result.Metrics {
			out[l.Workload][name] = append(out[l.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareSets compares every declared end-to-end metric on every workload
// present in either set, in workload then catalogue order.
func compareSets(a, b map[string]map[string][]float64) []compareRow {
	var wls []string
	for _, w := range workloadNames {
		if a[w] != nil || b[w] != nil {
			wls = append(wls, w)
		}
	}
	var rows []compareRow
	for _, w := range wls {
		for _, m := range endToEnd {
			row := compareValues(a[w][m.Name], b[w][m.Name], m)
			row.Workload = w
			rows = append(rows, row)
		}
	}
	return rows
}

// runCompare prints the comparison of two set files and returns the exit
// status: 1 when any pair is worse, 0 otherwise (unresolved pairs are
// listed by name but do not fail).
func runCompare(pathA, pathB string, w io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	rows := compareSets(a, b)
	fmt.Fprintf(w, "%-9s %-13s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "sprd A", "sprd B", "bound", "verdict")
	status := 0
	var unresolved []string
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-13s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d/%d)\n",
			r.Workload, r.Metric, r.MedA, r.MedB, 100*r.Change, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, r.Verdict, r.NA, r.NB)
		switch r.Verdict {
		case verdictWorse:
			status = 1
		case verdictUnresolved:
			unresolved = append(unresolved, r.Workload+"/"+r.Metric)
		}
	}
	if len(unresolved) > 0 {
		fmt.Fprintf(w, "unresolved: %v\n", unresolved)
	}
	return status
}
