package main

import (
	"strings"
	"testing"
)

func TestBenchNameStripsOnlyGOMAXPROCSSuffix(t *testing.T) {
	for _, tc := range []struct {
		raw   string
		procs int
		want  string
	}{
		{"BenchmarkCampaignParallel/workers-1", 1, "BenchmarkCampaignParallel/workers-1"},
		{"BenchmarkCampaignParallel/workers-8", 1, "BenchmarkCampaignParallel/workers-8"},
		{"BenchmarkCampaignParallel/workers-1-8", 8, "BenchmarkCampaignParallel/workers-1"},
		{"BenchmarkCampaignParallel/workers-8-8", 8, "BenchmarkCampaignParallel/workers-8"},
		{"BenchmarkCampaignParallel/workers-8-2", 2, "BenchmarkCampaignParallel/workers-8"},
		{"BenchmarkCampaignParallel/workers-8-2", 8, "BenchmarkCampaignParallel/workers-8-2"},
		{"BenchmarkProbe-2", 2, "BenchmarkProbe"},
	} {
		if got := benchName(tc.raw, tc.procs); got != tc.want {
			t.Errorf("benchName(%q, %d) = %q, want %q", tc.raw, tc.procs, got, tc.want)
		}
	}
}

func TestParseKeepsPackageAndColumns(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"pkg: arest/internal/exp",
		"BenchmarkCampaignParallel/workers-1-2 \t 10\t 1500 ns/op\t 64 B/op\t 2 allocs/op",
		"ok  \tarest/internal/exp\t1.2s",
		"pkg: arest/internal/pkt",
		"BenchmarkUDP-2 \t 1000\t 12.5 ns/op",
	}, "\n")
	got, err := parse(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkCampaignParallel/workers-1", Pkg: "arest/internal/exp", Iterations: 10, NsPerOp: 1500, BytesPerOp: 64, AllocsPerOp: 2},
		{Name: "BenchmarkUDP", Pkg: "arest/internal/pkt", Iterations: 1000, NsPerOp: 12.5, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
