package core

import (
	"slices"

	"arest/internal/mpls"
)

// Arena is append-only storage for the paths, results and tunnel analyses
// of a batch of traces: the destination of BuildPathInto, AnalyzeInto and
// TunnelsInto. Every value built in an arena aliases it, so it is valid
// only until the next Reset, which keeps the capacity for the next batch.
// The allocating forms (BuildPath, Analyze, Tunnels) run the same code
// over a fresh arena, so there is one analysis path. The zero value is
// ready; an Arena is not safe for concurrent use.
type Arena struct {
	hops    []Hop
	lses    mpls.Stack
	segs    []Segment
	depths  []int
	areas   []Area
	tunnels []TunnelAnalysis
	clouds  []Cloud
}

// Reset empties the arena and keeps its capacity. Values built in it
// before the call must no longer be used.
func (a *Arena) Reset() {
	a.hops = a.hops[:0]
	a.lses = a.lses[:0]
	a.segs = a.segs[:0]
	a.depths = a.depths[:0]
	a.areas = a.areas[:0]
	a.tunnels = a.tunnels[:0]
	a.clouds = a.clouds[:0]
}

// reserve returns s with room for n more elements. A nil s becomes
// non-nil even for n == 0 (a zero-size make does not allocate), so a
// region carved from it is never nil: regions that were non-nil in the
// allocating forms stay non-nil when they are empty.
func reserve[S ~[]E, E any](s S, n int) S {
	if s == nil {
		return make(S, 0, n)
	}
	return slices.Grow(s, n)
}

// tail returns s[from:] with its capacity cut at its length, so an append
// to the region reallocates instead of overwriting what follows it.
func tail[S ~[]E, E any](s S, from int) S {
	return s[from:len(s):len(s)]
}

// Clone returns a copy of p that owns its memory: one exact Hops slice and
// one LSE slab holding every hop's stack. Nil and empty slices keep their
// form, so the clone deep-equals p.
func (p *Path) Clone() *Path {
	out := &Path{VP: p.VP, Dst: p.Dst}
	if p.Hops == nil {
		return out
	}
	n := 0
	for i := range p.Hops {
		n += len(p.Hops[i].Stack)
	}
	out.Hops = make([]Hop, len(p.Hops))
	copy(out.Hops, p.Hops)
	slab := make(mpls.Stack, 0, n)
	for i := range out.Hops {
		if st := out.Hops[i].Stack; st != nil {
			k := len(slab)
			slab = append(slab, st...)
			out.Hops[i].Stack = tail(slab, k)
		}
	}
	return out
}

// Clone returns a copy of r, and of its path, that owns its memory: exact
// Segments and Areas slices and one slab for every segment's stack depths.
// Nil and empty slices keep their form, so the clone deep-equals r.
func (r *Result) Clone() *Result {
	out := &Result{Path: r.Path.Clone(), Areas: slices.Clone(r.Areas)}
	if r.Segments == nil {
		return out
	}
	n := 0
	for i := range r.Segments {
		n += len(r.Segments[i].StackDepths)
	}
	out.Segments = slices.Clone(r.Segments)
	depths := make([]int, 0, n)
	for i := range out.Segments {
		if d := out.Segments[i].StackDepths; d != nil {
			k := len(depths)
			depths = append(depths, d...)
			out.Segments[i].StackDepths = tail(depths, k)
		}
	}
	return out
}
