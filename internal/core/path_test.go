package core

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"arest/internal/fingerprint"
	"arest/internal/mpls"
	"arest/internal/probe"
	"arest/internal/testrace"
)

// refBuildPath is BuildPath as it stood before stacks moved into one
// slab: every kept hop clones its own stack.
func refBuildPath(tr *probe.Trace, ann *fingerprint.Annotator, asOf func(netip.Addr) int) *Path {
	p := &Path{VP: tr.VP, Dst: tr.Dst}
	for i := range tr.Hops {
		th := &tr.Hops[i]
		if !th.Responded() {
			continue
		}
		h := Hop{Addr: th.Addr, Stack: slices.Clone(th.Stack), Revealed: th.Revealed,
			QTTL: th.QTTL, Terminal: th.ICMPType == 3}
		if ann != nil {
			r := ann.Vendor(th.Addr)
			h.Vendor, h.Source = r.Vendor, r.Source
		}
		if asOf != nil {
			h.ASN = asOf(th.Addr)
		}
		p.Hops = append(p.Hops, h)
	}
	return p
}

// labeledTrace is a synthetic seven-hop trace into AS 100: an unlabeled
// entry hop, a silent hop (whose stack BuildPath must drop), a revealed
// hop, two SR hops, a hop quoting an empty but present stack, and the
// destination.
func labeledTrace() (*probe.Trace, func(netip.Addr) int) {
	addr := func(i byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, i}) }
	hops := []probe.Hop{
		{TTL: 1, Addr: addr(1), ICMPType: 11},
		{TTL: 2, Stack: mpls.Stack{{Label: 7, S: true}}},
		{TTL: 3, Addr: addr(3), ICMPType: 11, Revealed: true},
		{TTL: 4, Addr: addr(4), ICMPType: 11, QTTL: 2, Stack: mpls.Stack{{Label: 16004, TTL: 1}, {Label: 24001, TTL: 1, S: true}}},
		{TTL: 5, Addr: addr(5), ICMPType: 11, Stack: mpls.Stack{{Label: 16004, TTL: 1, S: true}}},
		{TTL: 6, Addr: addr(6), ICMPType: 11, Stack: mpls.Stack{}},
		{TTL: 7, Addr: addr(7), ICMPType: 3},
	}
	tr := &probe.Trace{VP: addr(100), Dst: addr(7), Hops: hops}
	asOf := func(a netip.Addr) int {
		if a == addr(1) {
			return 65000
		}
		return 100
	}
	return tr, asOf
}

func TestBuildPathMatchesPerHopClone(t *testing.T) {
	labeled, asOf := labeledTrace()
	ann := fingerprint.NewAnnotator(map[netip.Addr]mpls.Vendor{labeled.Hops[3].Addr: mpls.VendorCisco}, nil)
	cases := map[string]*probe.Trace{
		"labeled":    labeled,
		"nil hops":   {VP: labeled.VP, Dst: labeled.Dst},
		"empty hops": {VP: labeled.VP, Dst: labeled.Dst, Hops: []probe.Hop{}},
		"silent":     {Hops: []probe.Hop{{TTL: 1}, {TTL: 2, Stack: mpls.Stack{{Label: 9, S: true}}}}},
		"only empty": {Hops: []probe.Hop{{TTL: 1, Addr: labeled.Hops[0].Addr, Stack: mpls.Stack{}}}},
	}
	for name, tr := range cases {
		got, want := BuildPath(tr, ann, asOf), refBuildPath(tr, ann, asOf)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BuildPath = %+v, want %+v", name, got, want)
		}
	}

	// The path owns its stacks: writing the trace's does not reach it, and
	// appending to one hop's stack cannot overwrite the next hop's.
	p := BuildPath(labeled, ann, asOf)
	want := refBuildPath(labeled, ann, asOf)
	labeled.Hops[3].Stack[0].Label = 1
	for i, h := range p.Hops {
		if cap(h.Stack) != len(h.Stack) {
			t.Errorf("hop %d stack: cap %d, len %d", i, cap(h.Stack), len(h.Stack))
		}
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("path changed with its trace: %+v, want %+v", p, want)
	}
}

// RestrictToAS shares the receiver's hops; its capacity ends at the run,
// so appending to the result leaves the receiver's later hops alone.
func TestRestrictToASSharesHops(t *testing.T) {
	tr, asOf := labeledTrace()
	tr.Hops = append(tr.Hops, probe.Hop{TTL: 8, Addr: netip.AddrFrom4([4]byte{10, 0, 0, 8}), ICMPType: 11})
	p := BuildPath(tr, nil, func(a netip.Addr) int {
		if a == tr.Hops[len(tr.Hops)-1].Addr {
			return 200
		}
		return asOf(a)
	})
	sub := p.RestrictToAS(100)
	if len(sub.Hops) != 5 || &sub.Hops[0] != &p.Hops[1] {
		t.Fatalf("RestrictToAS(100) = %+v, want the 5 AS-100 hops of p, shared", sub.Hops)
	}
	sub.Hops = append(sub.Hops, Hop{ASN: 999})
	if next := p.Hops[len(p.Hops)-1]; next.ASN != 200 {
		t.Errorf("appending to the restricted path overwrote the receiver's next hop: %+v", next)
	}
}

// Allocation budget for annotating a labeled trace and restricting it to
// the AS of interest, as DetectStream does for every trace. The steady
// state is 4: the Path, its Hops, one LSE slab for every hop's stack, and
// the restricted Path, whose hops are a sub-slice of the first path's.
func TestAllocBudgetBuildPath(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	tr, asOf := labeledTrace()
	got := testing.AllocsPerRun(200, func() {
		if sub := BuildPath(tr, nil, asOf).RestrictToAS(100); len(sub.Hops) != 5 {
			t.Fatalf("restricted hops = %d, want 5", len(sub.Hops))
		}
	})
	const budget = 4
	if got > budget {
		t.Errorf("BuildPath+RestrictToAS: %.1f allocs/op, budget %d", got, budget)
	}
}
