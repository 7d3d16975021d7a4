package probe

import (
	"context"
	"net/netip"
	"testing"

	"arest/internal/netsim"
	"arest/internal/pkt"
	"arest/internal/testrace"
)

// Allocation budgets for the probe-send path, one scenario per branch of
// the sweep. A trace costs its result — the Trace, its exact Hops slice
// and, when any hop quotes labels, one LSE slab every hop's stack slices —
// plus the reply wire of each netsim exchange that answered; hops, stacks,
// loop detection and revelation are built in the pooled scratch, and probe
// construction, encoding and reply decoding contribute nothing. Each
// budget is its scenario's steady state: AllocsPerRun rounds the mean
// down, so a scratch the pool fails to recycle during a GC stays inside
// it, while a per-trace map, a per-hop stack or a heap Delivery trips it
// at once.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
}

func TestAllocBudgetTrace(t *testing.T) {
	skipUnderRace(t)
	cases := []struct {
		name string
		// setup returns the tracer and destination of the scenario.
		setup  func(t *testing.T) (*Tracer, netip.Addr)
		halt   HaltReason
		budget float64
	}{
		// 7 replies, each hop quoting its label stack.
		{"explicit SR tunnel", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, true, true)
			return tn.tracer(), tn.target
		}, HaltReached, 3 + 7},
		// Echo probes: the target host ends the trace with an echo reply.
		{"ICMP echo method", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, true, true)
			tc := tn.tracer()
			tc.Method = MethodICMP
			return tc, tn.target
		}, HaltReached, 3 + 7},
		// Pipe model with RFC 4950: the egress quotes an opaque LSE, and DPR
		// toward it reveals the 3 hidden LSRs. The main sweep's 4 replies
		// and the auxiliary trace's 6 ride on the result.
		{"opaque tunnel revealed", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, false, true)
			return tn.tracer(), tn.target
		}, HaltReached, 3 + 10},
		// Pipe model without quotes: the return-path jump triggers DPR. No
		// hop quotes labels, so there is no slab.
		{"invisible tunnel revealed", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, false, false)
			return tn.tracer(), tn.target
		}, HaltReached, 2 + 10},
		// gw and pe1 answer; p1, p2 and p3 stay silent through their
		// retries, and the third gap halts the sweep.
		{"gap halt", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			for _, p := range tn.ps {
				p.Profile.RespondsICMP = false
			}
			tn.pe2.Profile.RespondsICMP = false
			return tn.tracer(), tn.ps[2].Loopback
		}, HaltGaps, 2 + 2},
		// A self-looping FIB entry at pe1: gw, then pe1 answering from one
		// interface until three identical responders halt the sweep.
		{"period-1 loop halt", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			owner, ok := tn.net.Owner(tn.target)
			if !ok {
				t.Fatal("target unrouted")
			}
			tn.net.SetNextHopOverride(tn.pe1.ID, owner, tn.pe1.ID)
			return tn.tracer(), tn.target
		}, HaltLoop, 2 + 5},
		// Half the LSRs' replies are lost per probe; retries recover them.
		// The flow's coins give 7 replies, and retried probes cost nothing.
		{"retries over lossy hops", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			for _, p := range tn.ps {
				p.Profile.ICMPLossProb = 0.5
			}
			tc := tn.tracer()
			tc.Retries = 3
			return tc, tn.target
		}, HaltReached, 2 + 7},
		// Every exchange fails: the sweep halts at TTL 1 with no hop kept.
		// The cost is the Trace, and the wrapped error and its text for
		// each of the 3 attempts.
		{"transport error before any hop", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			return NewTracer(FaultConn{Conn: NetsimConn{tn.net}}, tn.vp), tn.target
		}, HaltError, 1 + 3*2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc, dst := c.setup(t)
			run := func() {
				res, err := tc.Trace(context.Background(), dst, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Halt != c.halt {
					t.Fatalf("halt = %v, want %v\n%s", res.Halt, c.halt, res)
				}
			}
			run()
			if got := testing.AllocsPerRun(100, run); got > c.budget {
				t.Errorf("Trace: %.1f allocs/op, budget %.0f", got, c.budget)
			}
		})
	}
}

// cannedConn answers every exchange with one fixed reply.
type cannedConn struct{ reply []byte }

func (c cannedConn) Exchange(context.Context, netip.Addr, []byte) ([]byte, float64, error) {
	return c.reply, 1, nil
}

// Ping and SampleIPID ride the same scratch pool: an answered probe costs
// its reply wire, and an unanswered or discarded one nothing.
func TestAllocBudgetPingAndIPID(t *testing.T) {
	skipUnderRace(t)
	tn := build(t, netsim.ModeIP, true, true)
	tn.ps[1].Profile.RespondsEcho = false
	tn.ps[2].Profile.RespondsICMP = false
	tr := tn.tracer()
	// A tracer whose BasePort lies outside the traceroute range probes
	// from the range's base instead.
	lowPort := tn.tracer()
	lowPort.BasePort = 80
	// A ping answered by a time-exceeded message is no echo reply.
	echo, err := (&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 7, Seq: 1, Body: pingPayload}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	probe, err := (&pkt.IPv4{TTL: 1, Protocol: pkt.ProtoICMP, Src: tn.vp, Dst: tn.target, Payload: echo}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	teConn := NewTracer(cannedConn{timeExceededFrom(t, tn.gw.Loopback, probe)}, tn.vp)

	ping := func(tc *Tracer, dst netip.Addr, want bool) func(t *testing.T) {
		return func(t *testing.T) {
			if _, ok, err := tc.Ping(context.Background(), dst, 7); err != nil || ok != want {
				t.Fatalf("ping %s: ok=%v err=%v, want ok=%v", dst, ok, err, want)
			}
		}
	}
	ipid := func(tc *Tracer, dst netip.Addr, want bool) func(t *testing.T) {
		return func(t *testing.T) {
			if _, ok, err := tc.SampleIPID(context.Background(), dst, 3); err != nil || ok != want {
				t.Fatalf("ipid %s: ok=%v err=%v, want ok=%v", dst, ok, err, want)
			}
		}
	}
	cases := []struct {
		name   string
		run    func(t *testing.T)
		budget float64
	}{
		{"Ping", ping(tr, tn.target, true), 1},
		{"Ping/echo dropped", ping(tr, tn.ps[1].Loopback, false), 0},
		{"Ping/time exceeded instead of echo reply", ping(teConn, tn.target, false), 0},
		{"SampleIPID", ipid(tr, tn.target, true), 1},
		{"SampleIPID/silent router", ipid(tr, tn.ps[2].Loopback, false), 0},
		{"SampleIPID/BasePort below the traceroute range", ipid(lowPort, tn.target, true), 1},
		{"InferInitialTTL", func(t *testing.T) {
			for _, c := range [][2]uint8{{20, 32}, {50, 64}, {100, 128}, {200, 255}} {
				if got := InferInitialTTL(c[0]); got != c[1] {
					t.Fatalf("InferInitialTTL(%d) = %d, want %d", c[0], got, c[1])
				}
			}
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.run(t)
			if got := testing.AllocsPerRun(200, func() { c.run(t) }); got > c.budget {
				t.Errorf("%s: %.1f allocs/op, budget %.0f", c.name, got, c.budget)
			}
		})
	}
}
