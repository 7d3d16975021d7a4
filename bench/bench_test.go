package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// smokeASes is a three-AS subset of the analyzed catalogue, including the
// ground-truth AS (ESnet, #46).
const smokeASes = "2,15,46"

// benchmarkJSON is the part of the repository's BENCHMARK.json that the
// catalogue declares too.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func declared(ms []metricDecl) []metricJSON {
	out := make([]metricJSON, len(ms))
	for i, m := range ms {
		out[i] = metricJSON{m.Name, m.Unit, m.Better, m.Bound}
	}
	return out
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var wls []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, catalogue %v", wls, workloadNames)
	}
	if got := declared(endToEnd); !reflect.DeepEqual(bj.EndToEnd, got) {
		t.Errorf("end_to_end:\nBENCHMARK.json %+v\ncatalogue      %+v", bj.EndToEnd, got)
	}
	if got := declared(perLayer); !reflect.DeepEqual(bj.PerLayer, got) {
		t.Errorf("per_layer:\nBENCHMARK.json %+v\ncatalogue      %+v", bj.PerLayer, got)
	}
}

// TestSmoke runs every workload, untraced and traced, for one iteration
// over a three-AS subset. Each run must pass its correctness checks and
// print exactly the metrics BENCHMARK.json declares for its mode, each with
// a unit, as "name value unit" lines and as the final JSON line. The runs
// are independent, so they share the CPUs in parallel.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	work := t.TempDir()
	for _, wl := range workloadNames {
		for trace, decls := range [][]metricJSON{bj.EndToEnd, bj.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", wl, trace), func(t *testing.T) {
				t.Parallel()
				smoke(t, wl, trace, decls, work)
			})
		}
	}
}

// smoke runs one workload in one mode and checks its output against decls.
func smoke(t *testing.T, wl string, trace int, decls []metricJSON, work string) {
	var out, log strings.Builder
	args := []string{"-workload", wl, "-seed", "1", "-seconds", "0", "-trace", strconv.Itoa(trace), "-ases", smokeASes, "-work", work}
	if code := run(args, &out, &log); code != 0 {
		t.Fatalf("exit %d\n%s", code, log.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	want := map[string]string{}
	for _, d := range decls {
		want[d.Name] = d.Unit
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Errorf("%q is not \"name value unit\"", l)
			continue
		}
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			t.Errorf("%s: %v", f[0], err)
		}
		printed[f[0]] = f[2]
	}
	jsonUnits := map[string]string{}
	for k, v := range res.Metrics {
		jsonUnits[k] = v.Unit
	}
	if !reflect.DeepEqual(printed, want) || !reflect.DeepEqual(jsonUnits, want) {
		t.Errorf("printed %v\njson %v\nwant %v", printed, jsonUnits, want)
	}
}
