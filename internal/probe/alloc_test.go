package probe

import (
	"context"
	"testing"

	"arest/internal/netsim"
	"arest/internal/testrace"
)

// Allocation budget for the probe-send path: one full Paris traceroute
// through an SR tunnel, revelation on, every hop answering with an RFC
// 4950 quote. The steady-state cost, 10, is the result itself (the
// Trace, its exact Hops slice and one LSE slab every hop's stack slices)
// plus the reply wire of each of the 7 netsim exchanges; hops, stacks and
// loop detection are built in the pooled scratch, and probe construction,
// encoding and reply decoding contribute nothing. The budget is that
// steady state: AllocsPerRun rounds the mean down, so a scratch the pool
// fails to recycle during a GC stays inside it, while a per-trace map, a
// per-hop stack or a heap Delivery trips it at once.
func TestAllocBudgetTrace(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	tn := build(t, netsim.ModeSR, true, true)
	tr := tn.tracer()
	got := testing.AllocsPerRun(100, func() {
		res, err := tr.Trace(context.Background(), tn.target, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reached() {
			t.Fatalf("halt = %v", res.Halt)
		}
	})
	const budget = 10
	if got > budget {
		t.Errorf("Trace: %.1f allocs/op, budget %d", got, budget)
	}
}

// Ping and SampleIPID ride the same scratch pool; their budgets cover the
// reply wire and pool headroom only.
func TestAllocBudgetPingAndIPID(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	tn := build(t, netsim.ModeIP, true, true)
	tr := tn.tracer()
	got := testing.AllocsPerRun(200, func() {
		if _, ok, err := tr.Ping(context.Background(), tn.target, 7); err != nil || !ok {
			t.Fatalf("ping: ok=%v err=%v", ok, err)
		}
	})
	if got > 8 {
		t.Errorf("Ping: %.1f allocs/op, budget 8", got)
	}
	got = testing.AllocsPerRun(200, func() {
		if _, ok, err := tr.SampleIPID(context.Background(), tn.target, 3); err != nil || !ok {
			t.Fatalf("ipid: ok=%v err=%v", ok, err)
		}
	})
	if got > 8 {
		t.Errorf("SampleIPID: %.1f allocs/op, budget 8", got)
	}
}
