package mpls

import "fmt"

// Pool is a per-router dynamic label allocator. Classic MPLS/LDP label
// bindings have purely local significance: each router independently draws
// labels for the FECs it handles from its own pool, so two adjacent routers
// assigning the same label to the same FEC is a ~1/N coincidence (Sec. 4.1).
//
// Allocation is pseudo-random within the pool range but deterministic for a
// given seed, so campaigns are reproducible and false-positive probabilities
// can be measured. The pool only draws: which labels are taken, and what
// each is bound to, is the caller's to record, in its own tables.
type Pool struct {
	src    labelSource // math/rand's draws for the seed, without its state
	labels LabelRange
	drawn  uint32 // labels Draw has returned
}

// NewPool creates a dynamic label pool over r, seeded deterministically:
// it draws the labels rand.New(rand.NewSource(seed)) would draw.
func NewPool(r LabelRange, seed int64) *Pool {
	return &Pool{src: newLabelSource(seed), labels: r}
}

// Draw returns the next draw of the seeded source that taken reports
// free. taken must report every label an earlier draw returned, so no
// label is returned twice. Draw panics once it has returned every label
// of the pool, which cannot happen for realistic pool sizes; a taken
// that also reports labels no draw returned must leave one free, or the
// draw never ends.
func (p *Pool) Draw(taken func(uint32) bool) uint32 {
	size := p.labels.Size()
	if p.drawn >= size {
		panic(fmt.Sprintf("mpls: label pool %v exhausted", p.labels))
	}
	for {
		l := p.labels.Lo + uint32(p.src.Int63n(int64(size)))
		if !taken(l) {
			p.drawn++
			return l
		}
	}
}
