package netsim

import (
	"testing"

	"arest/internal/testrace"
)

// Allocation budget for the hop-forward path: one Send through an SR
// tunnel, expiring mid-LSP so the reply carries the full RFC 4950 quote —
// the most allocation-heavy reply the simulator produces.
//
// The steady-state cost is 1: the reply wire, which the caller owns.
// Delivery comes back by value, and the destination is resolved from the
// exact-address index Compute built. The budget is that steady state:
// AllocsPerRun rounds the mean down, so a sendScratch the pool fails to
// recycle during a GC stays inside it, while a return to a heap Delivery,
// per-probe path recording, per-hop stack cloning or per-reply
// intermediate buffers trips it at once.
func TestAllocBudgetSend(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	c := buildChain(t)
	wire := udpProbe(c.vp, c.target, 4, 33434) // expires at an interior P router
	got := testing.AllocsPerRun(500, func() {
		d, err := c.net.Send(c.vp, wire)
		if err != nil {
			t.Fatal(err)
		}
		if d.Reply == nil {
			t.Fatal("expected a time-exceeded reply")
		}
	})
	const budget = 1
	if got > budget {
		t.Errorf("Send: %.1f allocs/op, budget %d", got, budget)
	}
}
