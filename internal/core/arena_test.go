package core

import (
	"math/rand"
	"reflect"
	"testing"

	"arest/internal/mpls"
	"arest/internal/testrace"
)

// arenaPaths are varied paths from the FuzzAnalyze decoder.
func arenaPaths() []*Path {
	src := rand.New(rand.NewSource(19))
	var out []*Path
	for i := 0; i < 64; i++ {
		b := make([]byte, 1+3*src.Intn(16))
		src.Read(b)
		p, _ := fuzzPath(b)
		out = append(out, p)
	}
	return append(out, &Path{}, &Path{Hops: []Hop{}})
}

// TestArenaMatchesAllocatingForms builds many results, and their tunnel
// analyses, into one arena without resetting it: each must equal the
// allocating form's, and still equal it after every later build, so no
// region of the arena is handed out twice. A Reset arena then rebuilds
// them the same way.
func TestArenaMatchesAllocatingForms(t *testing.T) {
	det := NewDetector()
	paths := arenaPaths()
	var a Arena
	for round := 0; round < 2; round++ {
		a.Reset()
		results := make([]Result, len(paths))
		tunnels := make([][]TunnelAnalysis, len(paths))
		for i, p := range paths {
			det.AnalyzeInto(&results[i], &a, p)
			tunnels[i] = results[i].TunnelsInto(&a)
		}
		for i, p := range paths {
			want := det.Analyze(p)
			if !reflect.DeepEqual(&results[i], want) {
				t.Fatalf("round %d path %d: AnalyzeInto = %+v, want %+v", round, i, results[i], want)
			}
			if got := tunnels[i]; !reflect.DeepEqual(got, want.Tunnels()) {
				t.Fatalf("round %d path %d: TunnelsInto = %+v, want %+v", round, i, got, want.Tunnels())
			}
		}
	}
}

// TestCloneOwnsMemory: Path.Clone and Result.Clone deep-equal their
// source and survive the arena they were built in being reset and reused.
func TestCloneOwnsMemory(t *testing.T) {
	det := NewDetector()
	var a Arena
	for _, p := range arenaPaths() {
		a.Reset()
		var res Result
		det.AnalyzeInto(&res, &a, p.Clone())
		c := res.Clone()
		want := det.Analyze(p)
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("clone = %+v, want %+v", c, want)
		}
		a.Reset()
		det.AnalyzeInto(&res, &a, &Path{Hops: []Hop{mkHop(mpls.VendorCisco, 16001), mkHop(mpls.VendorCisco, 16001)}})
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("clone changed when its arena was reused: %+v, want %+v", c, want)
		}
	}
}

// TestAllocBudgetArena: a warmed arena builds a trace's path, its
// restriction, its analysis and its tunnel analyses with no allocation.
func TestAllocBudgetArena(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	tr, asOf := labeledTrace()
	det := NewDetector()
	var a Arena
	var p Path
	var res Result
	run := func() {
		a.Reset()
		BuildPathInto(&p, &a, tr, nil, asOf)
		p.RestrictToASInto(&p, 100)
		det.AnalyzeInto(&res, &a, &p)
		res.TunnelsInto(&a)
	}
	run()
	if got := testing.AllocsPerRun(200, run); got != 0 {
		t.Errorf("arena build: %.1f allocs/op, budget 0", got)
	}
	want := BuildPath(tr, nil, asOf).RestrictToAS(100)
	if !reflect.DeepEqual(&p, want) {
		t.Errorf("in-place restriction = %+v, want %+v", p, want)
	}
}
