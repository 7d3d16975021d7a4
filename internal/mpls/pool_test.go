package mpls

import (
	"math"
	"math/rand"
	"testing"
)

// The pool draws without keys and keeps no record of its labels; that a
// router's bindings stay put across re-Computes is netsim's to keep, and
// TestLabelTablesMatchKeyedPool there checks it against the keyed pool
// these draws replaced.

// drawnSet is the taken-check a caller keeps: every label drawn so far.
type drawnSet map[uint32]bool

// draw draws from p and records the label as taken.
func (s drawnSet) draw(p *Pool) uint32 {
	l := p.Draw(func(l uint32) bool { return s[l] })
	s[l] = true
	return l
}

func TestPoolDrawWithinRange(t *testing.T) {
	r := DynamicPool(VendorCisco)
	p, s := NewPool(r, 42), drawnSet{}
	for i := 0; i < 1000; i++ {
		if l := s.draw(p); !r.Contains(l) {
			t.Fatalf("label %d outside pool %v", l, r)
		}
	}
}

func TestPoolDrawUnique(t *testing.T) {
	p, s := NewPool(LabelRange{100, 1099}, 3), drawnSet{}
	for i := 0; i < 1000; i++ {
		l := p.Draw(func(l uint32) bool { return s[l] })
		if s[l] {
			t.Fatalf("label %d drawn twice", l)
		}
		s[l] = true
	}
}

func TestPoolDeterministic(t *testing.T) {
	a, sa := NewPool(DynamicPool(VendorCisco), 99), drawnSet{}
	b, sb := NewPool(DynamicPool(VendorCisco), 99), drawnSet{}
	for i := 0; i < 50; i++ {
		if la, lb := sa.draw(a), sb.draw(b); la != lb {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, la, lb)
		}
	}
}

func TestPoolDifferentSeedsDiverge(t *testing.T) {
	// Local significance: two routers (different seeds) should essentially
	// never agree on the label of their i-th binding across many draws.
	a, sa := NewPool(DynamicPool(VendorCisco), 1), drawnSet{}
	b, sb := NewPool(DynamicPool(VendorCisco), 2), drawnSet{}
	agree := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if sa.draw(a) == sb.draw(b) {
			agree++
		}
	}
	// Expected agreements ≈ n/poolSize ≈ 0.002; allow a little slack.
	if agree > 3 {
		t.Errorf("%d/%d agreements between independent pools; labels are not locally significant enough", agree, n)
	}
}

func TestPoolExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("exhausted pool did not panic")
		}
	}()
	p, s := NewPool(LabelRange{10, 11}, 1), drawnSet{}
	s.draw(p)
	s.draw(p)
	s.draw(p) // pool of size 2 exhausted
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
