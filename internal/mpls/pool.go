package mpls

import "fmt"

// Pool is a per-router dynamic label allocator. Classic MPLS/LDP label
// bindings have purely local significance: each router independently draws
// labels for the FECs it handles from its own pool, so two adjacent routers
// assigning the same label to the same FEC is a ~1/N coincidence (Sec. 4.1).
//
// Allocation is pseudo-random within the pool range but deterministic for a
// given seed, so campaigns are reproducible and false-positive probabilities
// can be measured. The pool only draws: what a label is bound to is the
// caller's to record, in its own tables.
type Pool struct {
	src    labelSource // math/rand's draws for the seed, without its state
	labels LabelRange
	used   map[uint32]struct{}
}

// NewPool creates a dynamic label pool over r, seeded deterministically:
// it draws the labels rand.New(rand.NewSource(seed)) would draw.
func NewPool(r LabelRange, seed int64) *Pool {
	return &Pool{src: newLabelSource(seed), labels: r}
}

// Draw returns a label no earlier draw returned: the next draw of the
// seeded source that lands on an unused label. Draw panics only if the
// pool is fully exhausted, which cannot happen for realistic pool sizes.
func (p *Pool) Draw() uint32 {
	size := p.labels.Size()
	if uint32(len(p.used)) >= size {
		panic(fmt.Sprintf("mpls: label pool %v exhausted", p.labels))
	}
	if p.used == nil {
		p.used = make(map[uint32]struct{})
	}
	for {
		l := p.labels.Lo + uint32(p.src.Int63n(int64(size)))
		if _, taken := p.used[l]; !taken {
			p.used[l] = struct{}{}
			return l
		}
	}
}
