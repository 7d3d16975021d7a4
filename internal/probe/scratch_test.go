package probe

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
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

// NetsimConn appends the reply behind the probe, in wire's spare capacity.
// The probe's bytes stay as they were though that capacity held poison,
// and the reply equals the one an identical network answers into fresh
// memory: every byte of it is written.
func TestNetsimConnReplyInSpareCapacity(t *testing.T) {
	ctx := context.Background()
	for _, ttl := range []uint8{3, 64} { // a quoted time exceeded; the target's port unreachable
		tn, twin := build(t, netsim.ModeSR, true, true), build(t, netsim.ModeSR, true, true)
		probe := udpProbeWire(t, tn.vp, tn.target, ttl)
		wire := append(make([]byte, 0, wireCap), probe...)
		spare := wire[len(wire):cap(wire)]
		for i := range spare {
			spare[i] = 0xa5
		}
		reply, _, err := NetsimConn{tn.net}.Exchange(ctx, tn.vp, wire)
		if err != nil || reply == nil {
			t.Fatalf("ttl %d: reply %v, err %v", ttl, reply, err)
		}
		if !bytes.Equal(wire, probe) {
			t.Errorf("ttl %d: the exchange rewrote the probe", ttl)
		}
		if &reply[0] != &spare[0] {
			t.Errorf("ttl %d: the reply is not in the wire's spare capacity", ttl)
		}
		fresh, _, err := NetsimConn{twin.net}.Exchange(ctx, twin.vp, probe[:len(probe):len(probe)])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, fresh) {
			t.Errorf("ttl %d: reply in spare capacity\n% x\ndiffers from reply in fresh memory\n% x", ttl, reply, fresh)
		}
	}
}

// freshConn hands every reply back in fresh memory, as the Conn contract
// had it before a reply could share the probe's wire buffer.
type freshConn struct{ Conn }

func (c freshConn) Exchange(ctx context.Context, src netip.Addr, wire []byte) ([]byte, float64, error) {
	reply, rtt, err := c.Conn.Exchange(ctx, src, wire)
	return bytes.Clone(reply), rtt, err
}

// The tracer keeps nothing of a reply past its next probe, so replies in
// the wire buffer give the same traces, pings and IP-ID samples as replies
// in fresh memory, on every scenario of the allocation budgets. Each side
// probes its own copy of the network, whose IP-ID counters the probes
// advance alike.
func TestTracerSameOverFreshReplies(t *testing.T) {
	ctx := context.Background()
	for _, c := range traceCases() {
		t.Run(c.name, func(t *testing.T) {
			tc, dst := c.setup(t)
			old, oldDst := c.setup(t)
			old.Conn = freshConn{old.Conn}
			for flow := uint16(0); flow < 4; flow++ {
				got, err := tc.Trace(ctx, dst, flow)
				if err != nil {
					t.Fatal(err)
				}
				want, err := old.Trace(ctx, oldDst, flow)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("flow %d: over the wire buffer\n%s\nover fresh replies\n%s", flow, got, want)
				}
			}
		})
	}
	probes, old := probeCases(t, nil), probeCases(t, func(c Conn) Conn { return freshConn{c} })
	for i, c := range probes {
		got, err := c.send()
		want, oldErr := old[i].send()
		if got != want || (err == nil) != (oldErr == nil) {
			t.Errorf("%s: over the wire buffer %+v (err %v), over fresh replies %+v (err %v)", c.name, got, err, want, oldErr)
		}
	}
}

// A slab hands its chunks from one round of traces to the next, as an AS
// worker hands its slab from AS to AS, and keeps only the chunks the last
// round used: after a large round and then a small one, one chunk of each
// kind is left, holding the small round's hops and nothing of the large
// one's. Each trace written into the slab equals the one Trace returns.
func TestSlabDropsChunksAfterSmallerRound(t *testing.T) {
	ctx := context.Background()
	tn := build(t, netsim.ModeSR, false, true) // labeled, revealed traces
	tc := tn.tracer()
	var slab Slab
	round := func(traces int) (hops int) {
		slab.Reset()
		var tr Trace
		for k := 0; k < traces; k++ {
			if err := tc.TraceInto(ctx, &tr, &slab, tn.target, uint16(k)); err != nil {
				t.Fatal(err)
			}
			want, err := tc.Trace(ctx, tn.target, uint16(k))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&tr, want) {
				t.Fatalf("trace %d into the slab\n%s\nwant\n%s", k, &tr, want)
			}
			hops += len(tr.Hops)
		}
		return hops
	}
	if hops := round(400); hops <= 2*chunkLen {
		t.Fatalf("the large round took %d hops, want more than two chunks", hops)
	}
	large := len(slab.hops.bufs)
	small := round(20)
	slab.Reset()
	if len(slab.hops.bufs) != 1 || len(slab.lses.bufs) != 1 {
		t.Fatalf("after a round of %d chunks and a round of one, the slab keeps %d hop and %d LSE chunks, want 1 and 1",
			large, len(slab.hops.bufs), len(slab.lses.bufs))
	}
	kept := 0
	for _, h := range slab.hops.bufs[0] {
		if h.TTL != 0 {
			kept++
		}
	}
	if kept != small {
		t.Errorf("the kept chunk holds %d hops, want the small round's %d", kept, small)
	}
}
