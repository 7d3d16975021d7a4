package bdrmap

import (
	"context"
	"net/netip"
	"slices"
	"testing"

	"arest/internal/alias"
	"arest/internal/anaximander"
	"arest/internal/asgen"
	"arest/internal/mpls"
	"arest/internal/probe"
)

func a(s string) netip.Addr { return netip.MustParseAddr(s) }

func hop(addr string) probe.Hop {
	return probe.Hop{Addr: a(addr), ICMPType: 11}
}

func traceOf(addrs ...string) *probe.Trace {
	tr := &probe.Trace{VP: a("172.16.0.1"), Dst: a("100.0.0.1")}
	for _, s := range addrs {
		tr.Hops = append(tr.Hops, hop(s))
	}
	return tr
}

type fakeRIB map[string]int

func (f fakeRIB) OriginOf(addr netip.Addr) (int, bool) {
	// /16 granularity lookup.
	b := addr.As4()
	key := netip.AddrFrom4([4]byte{b[0], b[1], 0, 0}).String()
	asn, ok := f[key]
	return asn, ok
}

func TestAnnotatePrefixPass(t *testing.T) {
	rib := fakeRIB{"10.1.0.0": 100, "10.2.0.0": 200}
	tr := traceOf("10.1.0.1", "10.1.0.5", "10.2.0.1")
	ann := Annotate([]*probe.Trace{tr}, rib, nil)
	if ann[a("10.1.0.1")] != 100 || ann[a("10.2.0.1")] != 200 {
		t.Errorf("annotation = %v", ann)
	}
}

func TestAnnotateAliasCorrection(t *testing.T) {
	// Router B's entry interface 10.1.0.9 is numbered from AS 100's space,
	// but it aliases with two AS-200 addresses: the vote must flip it.
	rib := fakeRIB{"10.1.0.0": 100, "10.2.0.0": 200}
	tr := traceOf("10.1.0.1", "10.1.0.9", "10.2.0.1", "10.2.0.2")
	aliases := [][]netip.Addr{{a("10.1.0.9"), a("10.2.0.1"), a("10.2.0.2")}}
	ann := Annotate([]*probe.Trace{tr}, rib, aliases)
	if ann[a("10.1.0.9")] != 200 {
		t.Errorf("far-side interface = AS%d, want 200", ann[a("10.1.0.9")])
	}
	if ann[a("10.1.0.1")] != 100 {
		t.Errorf("true AS-100 interface flipped: %v", ann)
	}
}

func TestAnnotateAliasTieKeepsPrefix(t *testing.T) {
	// A 1-1 tie with no contrary successor: 10.1.0.1 is followed by its
	// own AS, 10.2.0.1 by nothing, so both keep their prefix annotation.
	rib := fakeRIB{"10.1.0.0": 100, "10.2.0.0": 200}
	tr := traceOf("10.1.0.1", "10.1.0.5", "10.2.0.1")
	aliases := [][]netip.Addr{{a("10.1.0.1"), a("10.2.0.1")}} // 1-1 tie
	ann := Annotate([]*probe.Trace{tr}, rib, aliases)
	if ann[a("10.1.0.1")] != 100 || ann[a("10.2.0.1")] != 200 {
		t.Errorf("tie should keep prefix annotations: %v", ann)
	}
}

func TestAnnotateAliasTieFallsThroughToSuccessor(t *testing.T) {
	// A tied vote applies nothing, so it must not shield its members from
	// the successor heuristic: 10.1.0.1 is only ever followed by AS 200.
	rib := fakeRIB{"10.1.0.0": 100, "10.2.0.0": 200}
	tr := traceOf("10.1.0.1", "10.2.0.1")
	aliases := [][]netip.Addr{{a("10.1.0.1"), a("10.2.0.1")}} // 1-1 tie
	ann := Annotate([]*probe.Trace{tr}, rib, aliases)
	if ann[a("10.1.0.1")] != 200 {
		t.Errorf("tied member = AS%d, want 200 from its single successor", ann[a("10.1.0.1")])
	}
	if ann[a("10.2.0.1")] != 200 {
		t.Errorf("last hop flipped: %v", ann)
	}
}

func TestAnnotateSuccessorHeuristic(t *testing.T) {
	// 10.1.0.9 always precedes AS-200 hops and is unaliased: reassign.
	rib := fakeRIB{"10.1.0.0": 100, "10.2.0.0": 200}
	trs := []*probe.Trace{
		traceOf("10.1.0.1", "10.1.0.9", "10.2.0.1"),
		traceOf("10.1.0.2", "10.1.0.9", "10.2.0.4"),
	}
	ann := Annotate(trs, rib, nil)
	if ann[a("10.1.0.9")] != 200 {
		t.Errorf("successor heuristic: AS%d, want 200", ann[a("10.1.0.9")])
	}
	// Interior AS-100 hops keep their annotation (successors are AS 100).
	if ann[a("10.1.0.1")] != 100 {
		t.Errorf("interior hop flipped: %v", ann)
	}
}

func TestAnnotateSuccessorAmbiguityKept(t *testing.T) {
	// An address followed sometimes by AS 100, sometimes AS 200: ambiguous,
	// keep the prefix annotation.
	rib := fakeRIB{"10.1.0.0": 100, "10.2.0.0": 200}
	trs := []*probe.Trace{
		traceOf("10.1.0.9", "10.2.0.1"),
		traceOf("10.1.0.9", "10.1.0.3"),
	}
	ann := Annotate(trs, rib, nil)
	if ann[a("10.1.0.9")] != 100 {
		t.Errorf("ambiguous successor reassigned: %v", ann)
	}
}

func TestAnnotateGapBreaksSuccession(t *testing.T) {
	rib := fakeRIB{"10.1.0.0": 100, "10.2.0.0": 200}
	tr := traceOf("10.1.0.9")
	tr.Hops = append(tr.Hops, probe.Hop{}) // gap
	tr.Hops = append(tr.Hops, hop("10.2.0.1"))
	ann := Annotate([]*probe.Trace{tr}, rib, nil)
	if ann[a("10.1.0.9")] != 100 {
		t.Errorf("succession across a gap used: %v", ann)
	}
}

// TestAnnotateAgainstWorldOracle runs the real pipeline over a synthetic
// world and scores the inference against the simulator's ground truth.
func TestAnnotateAgainstWorldOracle(t *testing.T) {
	rec, _ := asgen.ByID(28)
	dep := asgen.DeploymentFor(rec, 5)
	dep.Routers = 20
	// Make everything fingerprintable/responsive for a clean oracle test.
	dep.EchoProb = 1
	w := asgen.Build(rec, dep, 3, 5)
	rib := anaximander.CollectRIB(w)

	var traces []*probe.Trace
	seen := map[netip.Addr]bool{}
	for _, vp := range w.VPs {
		tc := probe.NewTracer(probe.NetsimConn{Net: w.Net}, vp)
		for _, tgt := range w.Targets {
			tr, err := tc.Trace(context.Background(), tgt, 0)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, tr)
			for _, h := range tr.Hops {
				if h.Responded() {
					seen[h.Addr] = true
				}
			}
		}
	}
	var cands []netip.Addr
	for addr := range seen {
		cands = append(cands, addr)
	}
	slices.SortFunc(cands, netip.Addr.Compare)
	tc := probe.NewTracer(probe.NetsimConn{Net: w.Net}, w.VPs[0])
	sets, err := alias.Resolve(context.Background(), cands, tc, alias.DefaultConfig())
	if err != nil {
		t.Fatalf("alias.Resolve: %v", err)
	}
	ann := Annotate(traces, rib, sets)

	total, correct := 0, 0
	for addr, got := range ann {
		want := w.ASNOf(addr)
		if want == 0 {
			continue // host addresses etc.
		}
		total++
		if got == want {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("oracle scored nothing")
	}
	acc := float64(correct) / float64(total)
	// Once tied alias votes fall through to the successor heuristic, every
	// scored address in this world is annotated correctly.
	if correct != total {
		t.Errorf("bdrmap accuracy = %.4f (%d/%d), want 1", acc, correct, total)
	}
	_ = mpls.VendorCisco
}
