package probe

import (
	"sync"

	"arest/internal/mpls"
)

// chunkLen is how many hops, and how many LSEs, one slab chunk holds:
// 1024 hops are about 80 KB.
const chunkLen = 1024

// Slab is storage for the hops and label stacks of many traces, written by
// TraceInto and kept from one Reset to the next. It hands each trace one
// region of a fixed-size hop chunk and one of an LSE chunk, so filling it
// never re-copies what it holds, and it allocates only a chunk when the
// current one is full, or an exact region for a trace longer than a
// chunk. Any number of TraceInto calls may share a slab concurrently; each
// takes its lock once. The zero value is ready.
//
// Reset reuses the chunks, so everything TraceInto wrote into the slab is
// valid only until the next Reset: a caller that keeps a trace past it
// copies the trace out (Trace.Clone). Reset keeps only the chunks used
// since the previous Reset, so what the slab retains tracks the last
// round of traces, not the largest.
type Slab struct {
	mu   sync.Mutex
	hops chunks[Hop]
	lses chunks[mpls.LSE]
}

// Reset empties the slab for the next round of traces. It must not run
// concurrently with a TraceInto into the slab.
func (s *Slab) Reset() {
	s.hops.reset()
	s.lses.reset()
}

// take returns room for nh hops and nl LSEs: zero-length slices of
// exactly that capacity, fresh when s is nil.
func (s *Slab) take(nh, nl int) ([]Hop, mpls.Stack) {
	if s == nil {
		return make([]Hop, 0, nh), make(mpls.Stack, 0, nl)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hops.take(nh), s.lses.take(nl)
}

// chunks hands out regions of chunkLen-element chunks, in order.
type chunks[T any] struct {
	bufs [][]T
	n    int // bufs[:n] are in use since the last reset
	used int // elements of bufs[n-1] handed out
}

// take returns a zero-length region of capacity k, from the current chunk
// when it has room, else from the next one, which is made when there is
// none. A region longer than a chunk is made on its own, and an empty one
// is nil.
func (c *chunks[T]) take(k int) []T {
	switch {
	case k == 0:
		return nil
	case k > chunkLen:
		return make([]T, 0, k)
	}
	if c.n == 0 || c.used+k > chunkLen {
		if c.n > 0 {
			clear(c.bufs[c.n-1][c.used:]) // hold nothing of an earlier round
		}
		if c.n == len(c.bufs) {
			c.bufs = append(c.bufs, make([]T, chunkLen))
		}
		c.n, c.used = c.n+1, 0
	}
	r := c.bufs[c.n-1][c.used : c.used : c.used+k]
	c.used += k
	return r
}

// reset drops the chunks not used since the last reset and readies the
// others for reuse. What the kept chunks hold then points into kept chunks
// only, so the dropped ones are garbage.
func (c *chunks[T]) reset() {
	if c.n > 0 {
		clear(c.bufs[c.n-1][c.used:])
	}
	clear(c.bufs[c.n:])
	c.bufs = c.bufs[:c.n]
	c.n, c.used = 0, 0
}
