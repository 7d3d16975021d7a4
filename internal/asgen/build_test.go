package asgen_test

import (
	"runtime"
	"testing"

	"arest/internal/asgen"
	"arest/internal/exp"
	"arest/internal/testrace"
)

// analyzedWorld is one catalogue AS the default campaign measures, with
// the deployment and build arguments the campaign gives it.
type analyzedWorld struct {
	rec    asgen.Record
	dep    asgen.Deployment
	numVPs int
	seed   int64
}

// analyzedWorlds lists the 41 catalogue ASes the default campaign keeps,
// each with its deployment clamped to the campaign's router cap.
func analyzedWorlds() []analyzedWorld {
	cfg := exp.DefaultConfig()
	var out []analyzedWorld
	for _, rec := range asgen.Catalogue {
		if asgen.ExcludedIDs[rec.ID] {
			continue
		}
		dep := asgen.DeploymentFor(rec, cfg.Seed)
		if cfg.MaxRouters > 0 && dep.Routers > cfg.MaxRouters {
			dep.Routers = cfg.MaxRouters
		}
		out = append(out, analyzedWorld{rec, dep, cfg.NumVPs, cfg.Seed})
	}
	return out
}

// BenchmarkBuild builds every world of the default campaign once per
// iteration: topology, control planes (SPF, SIDs, LDP bindings) and
// policies.
func BenchmarkBuild(b *testing.B) {
	worlds := analyzedWorlds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range worlds {
			asgen.Build(w.rec, w.dep, w.numVPs, w.seed)
		}
	}
}

// buildCost returns the mean allocations and bytes of one Build of w over
// runs builds after a warm-up, measured as testing.AllocsPerRun measures
// allocations.
func buildCost(w analyzedWorld, runs int) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	asgen.Build(w.rec, w.dep, w.numVPs, w.seed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		asgen.Build(w.rec, w.dep, w.numVPs, w.seed)
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// TestAllocBudgetBuild pins the allocations and bytes of building three
// analyzed worlds: a small stub (Iliad Italy), an LDP-only transit AS
// (Telecom Italia) and an SR/LDP interworking AS with a mapping server
// (Deutsche Telekom). A router keeps its links in one slice and every
// incoming label it binds in one table, made at its first binding and
// sized for the LDP labels only a router that binds them will hold; its
// label pool keeps no set of its own, and its outgoing LDP labels sit in
// a dense slice. The network keeps each address once, in one table
// written where the address is made, the IGP distances in one flat int32
// table and the next hops in one slab of int32 router IDs. So a formatted
// key per binding (~3,500 strings in Telecom Italia), a used-label set
// per pool or a map per router per kind of binding trips the allocation
// budget; a slice header per router pair (34² or 76² of them), an
// LDP-sized table on every SR router, a /32 per address in the prefix
// table, an address table rebuilt at every Compute or an int per distance
// or next hop trips the byte budget. Each budget is the larger steady
// state of two map implementations, Go 1.24's swiss tables and the older
// buckets (GOEXPERIMENT=noswissmap, the default before Go 1.24), plus 2%
// for the older maps' spread across hash seeds.
func TestAllocBudgetBuild(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	budgets := map[int]struct{ allocs, bytes uint64 }{
		2:  {450, 80_000},   // measured 439 (swiss) and 77,876 (noswissmap)
		38: {1030, 353_000}, // measured 1,006 (swiss) and 345,379 (noswissmap)
		53: {1045, 294_000}, // measured 1,023 (swiss) and 287,908 (noswissmap)
	}
	for _, w := range analyzedWorlds() {
		budget, ok := budgets[w.rec.ID]
		if !ok {
			continue
		}
		delete(budgets, w.rec.ID)
		t.Run(w.rec.Name, func(t *testing.T) {
			allocs, bytes := buildCost(w, 5)
			if allocs > budget.allocs {
				t.Errorf("Build: %d allocs/op, budget %d", allocs, budget.allocs)
			}
			if bytes > budget.bytes {
				t.Errorf("Build: %d B/op, budget %d", bytes, budget.bytes)
			}
		})
	}
	if len(budgets) > 0 {
		t.Fatalf("records %v are not analyzed worlds", budgets)
	}
}
