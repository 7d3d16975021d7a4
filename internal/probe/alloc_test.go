package probe

import (
	"context"
	"testing"

	"arest/internal/netsim"
	"arest/internal/testrace"
)

// Allocation budget for the probe-send path: one full Paris traceroute
// through an SR tunnel, revelation on, every hop answering with an RFC
// 4950 quote. The steady-state cost, 24, is the result itself (Trace, its
// hop slice, the loop-detection map, one decoded label stack per labeled
// hop) plus the Delivery and reply wire of each netsim Send; probe
// construction, encoding, and reply decoding must contribute nothing. The
// budget carries headroom for GC-cleared pools but sits far below the
// pre-scratch cost (~400 allocs per trace), so a fallback to per-probe
// buffers or path recording trips it at once.
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
	const budget = 40
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
