package probe

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"arest/internal/netsim"
)

// cloneTrace deep-copies a trace, keeping nil slices nil.
func cloneTrace(tr *Trace) *Trace {
	c := *tr
	c.Hops = append([]Hop(nil), tr.Hops...)
	for i := range c.Hops {
		c.Hops[i].Stack = slices.Clone(c.Hops[i].Stack)
	}
	c.RevealErrs = append([]string(nil), tr.RevealErrs...)
	return &c
}

// Traces are built in pooled scratch and copied out once; the copy must
// own its memory. A labeled, revealed trace is taken first, then many more
// traces over other tunnel types and flows run through the same pool, one
// after another and from several goroutines (run this under -race too),
// and the first trace must still equal its deep copy. Its Hops and every
// hop's stack must also end at their length, so appending to one never
// writes into another.
func TestTraceOwnsItsMemory(t *testing.T) {
	ctx := context.Background()
	opaque := build(t, netsim.ModeSR, false, true) // labeled ending hop, revealed interior
	first, err := opaque.tracer().Trace(ctx, opaque.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	labeled, revealed := 0, 0
	for _, h := range first.Hops {
		if h.HasStack() {
			labeled++
		}
		if h.Revealed {
			revealed++
		}
	}
	if labeled == 0 || revealed == 0 {
		t.Fatalf("want a labeled, revealed trace, got %d labeled and %d revealed hops\n%s", labeled, revealed, first)
	}
	want := cloneTrace(first)

	nets := []*testNet{
		opaque,
		build(t, netsim.ModeSR, true, true),
		build(t, netsim.ModeLDP, true, true),
		build(t, netsim.ModeLDP, false, false),
		build(t, netsim.ModeIP, true, true),
	}
	run := func(k int) error {
		tn := nets[k%len(nets)]
		tr, err := tn.tracer().Trace(ctx, tn.target, uint16(k))
		if err == nil && !tr.Reached() {
			err = fmt.Errorf("trace %d: halt = %v", k, tr.Halt)
		}
		return err
	}
	for k := 0; k < 200; k++ {
		if err := run(k); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < 400 && errs[g] == nil; k += workers {
				errs[g] = run(k)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(first, want) {
		t.Fatalf("the first trace changed under later traces:\ngot  %s\nwant %s", first, want)
	}
	if cap(first.Hops) != len(first.Hops) {
		t.Errorf("Hops: cap %d, len %d", cap(first.Hops), len(first.Hops))
	}
	for i, h := range first.Hops {
		if cap(h.Stack) != len(h.Stack) {
			t.Errorf("hop %d stack: cap %d, len %d", i, cap(h.Stack), len(h.Stack))
		}
	}
}
