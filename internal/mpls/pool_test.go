package mpls

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestPoolAllocateStableBinding(t *testing.T) {
	p := NewPool(DynamicPool(VendorCisco), 1)
	l1 := p.Allocate("10.0.0.0/24")
	l2 := p.Allocate("10.0.0.0/24")
	if l1 != l2 {
		t.Errorf("re-allocation for same FEC: %d != %d", l1, l2)
	}
	if p.Allocated() != 1 {
		t.Errorf("Allocated = %d, want 1", p.Allocated())
	}
}

func TestPoolAllocateWithinRange(t *testing.T) {
	r := DynamicPool(VendorCisco)
	p := NewPool(r, 42)
	for i := 0; i < 1000; i++ {
		l := p.Allocate(fmt.Sprintf("fec-%d", i))
		if !r.Contains(l) {
			t.Fatalf("label %d outside pool %v", l, r)
		}
	}
}

func TestPoolAllocateUnique(t *testing.T) {
	p := NewPool(LabelRange{100, 1099}, 3)
	seen := make(map[uint32]bool)
	for i := 0; i < 1000; i++ {
		l := p.Allocate(fmt.Sprintf("fec-%d", i))
		if seen[l] {
			t.Fatalf("label %d allocated twice", l)
		}
		seen[l] = true
	}
	if p.Allocated() != 1000 {
		t.Errorf("Allocated = %d, want 1000", p.Allocated())
	}
}

func TestPoolDeterministic(t *testing.T) {
	a := NewPool(DynamicPool(VendorCisco), 99)
	b := NewPool(DynamicPool(VendorCisco), 99)
	for i := 0; i < 50; i++ {
		fec := fmt.Sprintf("fec-%d", i)
		if la, lb := a.Allocate(fec), b.Allocate(fec); la != lb {
			t.Fatalf("same seed diverged at %s: %d vs %d", fec, la, lb)
		}
	}
}

func TestPoolDifferentSeedsDiverge(t *testing.T) {
	// Local significance: two routers (different seeds) should essentially
	// never agree on the label for the same FEC across many FECs.
	a := NewPool(DynamicPool(VendorCisco), 1)
	b := NewPool(DynamicPool(VendorCisco), 2)
	agree := 0
	const n = 2000
	for i := 0; i < n; i++ {
		fec := fmt.Sprintf("fec-%d", i)
		if a.Allocate(fec) == b.Allocate(fec) {
			agree++
		}
	}
	// Expected agreements ≈ n/poolSize ≈ 0.002; allow a little slack.
	if agree > 3 {
		t.Errorf("%d/%d agreements between independent pools; labels are not locally significant enough", agree, n)
	}
}

func TestPoolLookup(t *testing.T) {
	p := NewPool(LabelRange{100, 200}, 1)
	if _, ok := p.Lookup("missing"); ok {
		t.Error("Lookup on empty pool returned ok")
	}
	l := p.Allocate("a")
	got, ok := p.Lookup("a")
	if !ok || got != l {
		t.Errorf("Lookup = %d,%v; want %d,true", got, ok, l)
	}
}

func TestPoolExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("exhausted pool did not panic")
		}
	}()
	p := NewPool(LabelRange{10, 11}, 1)
	p.Allocate("a")
	p.Allocate("b")
	p.Allocate("c") // pool of size 2 exhausted
}

// TestPoolSourceMatchesMathRand pins the computed label source to
// math/rand: its Int63n draws must equal those of
// rand.New(rand.NewSource(seed)) for every seed, across the 273-output
// prefix the source computes and the handover to math/rand past it. The
// bounds cycle through a power of two, small pools and bounds near 2^62
// that reject about a quarter of the outputs, so draws and outputs drift
// apart and the handover lands inside and between draws.
func TestPoolSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 31, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(7))
	for len(seeds) < 207 {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	bounds := []int64{1 << 12, 1000, 3 << 61, 1048575 - 16, 7, 1<<62 + 1}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newLabelSource(seed)
		for i := 0; i < 900; i++ {
			n := bounds[i%len(bounds)]
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("seed %d draw %d (n=%d): got %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}
