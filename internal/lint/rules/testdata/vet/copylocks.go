// Package a pins go vet's copylocks check on a mutex-bearing value and a
// new-style-atomic-bearing value: every by-value copy of either, marked
// with a want comment, must draw a vet finding on its line.
package a

import (
	"sync"
	"sync/atomic"
)

// Guarded carries a mutex: copying it forks the lock.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Counter carries a new-style atomic value: copying it splits the count.
type Counter struct {
	hits atomic.Uint64
}

func (g Guarded) badRecv() int { // want `method badRecv has a value receiver copying`
	return g.n
}

func (g *Guarded) goodRecv() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func byValue(g Guarded) int { // want `parameter of byValue copies`
	return g.n
}

func byPointer(g *Guarded) int { return g.n }

func passCounter(c Counter) uint64 { // want `parameter of passCounter copies`
	return c.hits.Load()
}

func snapshot(g *Guarded) int {
	dup := *g // want `assignment copies`
	return dup.n
}

func declCopy(g *Guarded) {
	var dup = *g // want `var initializer copies`
	_ = dup
}

func iterate(gs []Guarded) int {
	total := 0
	for _, g := range gs { // want `range variable g copies`
		total += g.n
	}
	for i := range gs {
		total += gs[i].n
	}
	return total
}

func deref(g *Guarded) Guarded {
	return *g // want `return dereferences and copies`
}

func fresh() *Guarded {
	g := Guarded{} // composite literal: fresh state, legal
	return &g
}

func litParam() func(*Guarded) int {
	bad := func(g Guarded) int { // want `parameter of func literal copies`
		return g.n
	}
	_ = bad
	return func(g *Guarded) int { return g.n }
}
