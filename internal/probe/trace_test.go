package probe

import (
	"reflect"
	"testing"

	"arest/internal/mpls"
)

// cloneCases are traces whose nil and empty slices a copy must keep apart.
func cloneCases() map[string]*Trace {
	labeled := &Trace{VP: a("172.16.0.1"), Dst: a("10.0.0.9"), FlowID: 3, Halt: HaltError,
		Err: "injected", RevealErrs: []string{"dpr: timeout"},
		Hops: []Hop{
			{TTL: 1, Addr: a("10.0.0.1"), Stack: mpls.Stack{{Label: 16005, TTL: 1}, {Label: 24001, S: true, TTL: 1}}},
			{TTL: 2},
			{TTL: 3, Addr: a("10.0.0.3"), Stack: mpls.Stack{}},
			{TTL: 4, Addr: a("10.0.0.4"), Revealed: true, QTTL: 2},
			{TTL: 5, Addr: a("10.0.0.5"), ICMPType: 3, Stack: mpls.Stack{{Label: 16005, S: true, TTL: 250}}},
		}}
	return map[string]*Trace{
		"labeled":     labeled,
		"nil hops":    {VP: a("172.16.0.1"), Dst: a("10.0.0.9")},
		"empty hops":  {Hops: []Hop{}, RevealErrs: []string{}},
		"empty stack": {Hops: []Hop{{TTL: 1, Addr: a("10.0.0.1"), Stack: mpls.Stack{}}}},
	}
}

// TestTraceCloneOwnsMemory: a clone, and a copy into slabs that already
// hold other traces, deep-equal the original and share none of its memory.
func TestTraceCloneOwnsMemory(t *testing.T) {
	var hops []Hop
	var lses mpls.Stack
	for name, tr := range cloneCases() {
		want := cloneCases()[name]
		var into Trace
		hops, lses = tr.CopyInto(&into, hops, lses)
		for _, got := range []*Trace{tr.Clone(), &into} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: copy = %+v, want %+v", name, got, want)
			}
			for i := range got.Hops {
				if cap(got.Hops[i].Stack) != len(got.Hops[i].Stack) {
					t.Errorf("%s: hop %d stack cap %d, len %d", name, i, cap(got.Hops[i].Stack), len(got.Hops[i].Stack))
				}
			}
		}
		// Scribble over the original: no copy may see it.
		for i := range tr.Hops {
			tr.Hops[i].TTL = -1
			for j := range tr.Hops[i].Stack {
				tr.Hops[i].Stack[j].Label = 1
			}
		}
		for i := range tr.RevealErrs {
			tr.RevealErrs[i] = "changed"
		}
		if !reflect.DeepEqual(&into, want) {
			t.Errorf("%s: copy changed with its original", name)
		}
	}
}

// TestAppendTunnelsAppends: tunnels appended after another trace's are the
// trace's own classification — the implicit staircase's overlap check
// looks only at tunnels of the same trace.
func TestAppendTunnelsAppends(t *testing.T) {
	first := &Trace{Hops: []Hop{respHop(1, "10.0.0.1"), {TTL: 2, Addr: a("10.0.0.2"), RTT: 1, ICMPType: 11,
		ReplyTTL: 250, Stack: mpls.Stack{{Label: 16005, S: true, TTL: 1}}}, respHop(3, "10.0.0.3")}}
	h1 := respHop(1, "10.1.0.1")
	h1.QTTL = 1
	h2 := respHop(2, "10.1.0.2")
	h2.QTTL = 2
	second := &Trace{Hops: []Hop{h1, h2}}
	dst := AppendTunnels(nil, first)
	if len(dst) == 0 || dst[len(dst)-1].End < 1 {
		t.Fatalf("first trace tunnels = %+v, want one ending at hop 1 or later", dst)
	}
	got := AppendTunnels(dst, second)
	if !reflect.DeepEqual(got[:len(dst)], ClassifyTunnels(first)) {
		t.Errorf("appending changed the earlier tunnels: %+v", got[:len(dst)])
	}
	if want := ClassifyTunnels(second); !reflect.DeepEqual(got[len(dst):], want) {
		t.Errorf("appended tunnels = %+v, want %+v", got[len(dst):], want)
	}
	if ClassifyTunnels(&Trace{}) != nil {
		t.Error("a trace without tunnels must classify to nil")
	}
}
