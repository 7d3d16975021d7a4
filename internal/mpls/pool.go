package mpls

import "fmt"

// Pool is a per-router dynamic label allocator. Classic MPLS/LDP label
// bindings have purely local significance: each router independently draws
// labels for the FECs it handles from its own pool, so two adjacent routers
// assigning the same label to the same FEC is a ~1/N coincidence (Sec. 4.1).
//
// Allocation is pseudo-random within the pool range but deterministic for a
// given seed, so campaigns are reproducible and false-positive probabilities
// can be measured.
type Pool struct {
	src   labelSource // math/rand's draws for the seed, without its state
	rng2  LabelRange
	used  map[uint32]bool
	bound map[string]uint32 // FEC key -> label
}

// NewPool creates a dynamic label pool over r, seeded deterministically:
// it draws the labels rand.New(rand.NewSource(seed)) would draw.
func NewPool(r LabelRange, seed int64) *Pool {
	return &Pool{src: newLabelSource(seed), rng2: r}
}

// Allocate binds a fresh label to the FEC key and returns it. Repeated
// calls with the same key return the same label (per-FEC binding, as LDP
// does). Allocate panics only if the pool is fully exhausted, which cannot
// happen for realistic pool sizes.
func (p *Pool) Allocate(fec string) uint32 {
	if l, ok := p.bound[fec]; ok {
		return l
	}
	size := p.rng2.Size()
	if uint32(len(p.used)) >= size {
		panic(fmt.Sprintf("mpls: label pool %v exhausted", p.rng2))
	}
	if p.used == nil {
		p.used = make(map[uint32]bool)
		p.bound = make(map[string]uint32)
	}
	for {
		l := p.rng2.Lo + uint32(p.src.Int63n(int64(size)))
		if !p.used[l] {
			p.used[l] = true
			p.bound[fec] = l
			return l
		}
	}
}
