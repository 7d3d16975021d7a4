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
// and, when any hop quotes labels, one LSE slab every hop's stack slices;
// hops, stacks, loop detection and revelation are built in the pooled
// scratch, every netsim reply lands in the spare capacity of the probe's
// wire buffer, and probe construction, encoding and reply decoding
// contribute nothing. TraceInto a caller's Trace and a warmed Slab costs
// nothing at all, but the text of a transport error. Each budget is its
// scenario's steady state:
// AllocsPerRun rounds the mean down, so a scratch the pool fails to
// recycle during a GC stays inside it, while a per-trace map, a per-hop
// stack, a heap Delivery or a reply that misses the wire buffer trips it
// at once.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
}

// traceCase is one Trace scenario: setup builds a fresh network and
// returns the tracer and destination, halt is how the trace ends, and
// budget is its allocations per trace. errAllocs is the part of budget
// that is the text of the trace's errors, all a trace written into a
// warmed Slab costs.
type traceCase struct {
	name      string
	setup     func(t *testing.T) (*Tracer, netip.Addr)
	halt      HaltReason
	budget    float64
	errAllocs float64
}

func traceCases() []traceCase {
	return []traceCase{
		// 7 replies, each hop quoting its label stack.
		{"explicit SR tunnel", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, true, true)
			return tn.tracer(), tn.target
		}, HaltReached, 3, 0},
		// Echo probes: the target host ends the trace with an echo reply.
		{"ICMP echo method", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, true, true)
			tc := tn.tracer()
			tc.Method = MethodICMP
			return tc, tn.target
		}, HaltReached, 3, 0},
		// Pipe model with RFC 4950: the egress quotes an opaque LSE, and DPR
		// toward it reveals the 3 hidden LSRs. The main sweep's 4 replies
		// and the auxiliary trace's 6 land in the two scratches' wires.
		{"opaque tunnel revealed", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, false, true)
			return tn.tracer(), tn.target
		}, HaltReached, 3, 0},
		// Pipe model without quotes: the return-path jump triggers DPR. No
		// hop quotes labels, so there is no slab.
		{"invisible tunnel revealed", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeSR, false, false)
			return tn.tracer(), tn.target
		}, HaltReached, 2, 0},
		// gw and pe1 answer; p1, p2 and p3 stay silent through their
		// retries, and the third gap halts the sweep.
		{"gap halt", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			for _, p := range tn.ps {
				p.Profile.RespondsICMP = false
			}
			tn.pe2.Profile.RespondsICMP = false
			return tn.tracer(), tn.ps[2].Loopback
		}, HaltGaps, 2, 0},
		// A self-looping FIB entry at pe1: gw, then pe1 answering from one
		// interface until three identical responders halt the sweep.
		{"period-1 loop halt", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			tn.net.SetNextHopOverride(tn.pe1.ID, tn.pe2.ID, tn.pe1.ID) // pe2 owns the target
			return tn.tracer(), tn.target
		}, HaltLoop, 2, 0},
		// Half the LSRs' replies are lost per probe; retries recover them.
		// Retried probes cost nothing.
		{"retries over lossy hops", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			for _, p := range tn.ps {
				p.Profile.ICMPLossProb = 0.5
			}
			tc := tn.tracer()
			tc.Retries = 3
			return tc, tn.target
		}, HaltReached, 2, 0},
		// Every exchange fails: the sweep halts at TTL 1 with no hop kept.
		// The cost is the Trace, and the wrapped error and its text for
		// each of the 3 attempts.
		{"transport error before any hop", func(t *testing.T) (*Tracer, netip.Addr) {
			tn := build(t, netsim.ModeIP, true, true)
			return NewTracer(FaultConn{Conn: NetsimConn{tn.net}}, tn.vp), tn.target
		}, HaltError, 1 + 3*2, 3 * 2},
	}
}

// TestAllocBudgetTrace runs every scenario through Trace, and through
// TraceInto a reused Trace and a Slab reset before each trace, as an AS
// worker resets its slab before each AS.
func TestAllocBudgetTrace(t *testing.T) {
	skipUnderRace(t)
	for _, c := range traceCases() {
		t.Run(c.name, func(t *testing.T) {
			tc, dst := c.setup(t)
			check := func(res *Trace) {
				if res.Halt != c.halt {
					t.Fatalf("halt = %v, want %v\n%s", res.Halt, c.halt, res)
				}
			}
			run := func() {
				res, err := tc.Trace(context.Background(), dst, 0)
				if err != nil {
					t.Fatal(err)
				}
				check(res)
			}
			run()
			if got := testing.AllocsPerRun(100, run); got > c.budget {
				t.Errorf("Trace: %.1f allocs/op, budget %.0f", got, c.budget)
			}
			var tr Trace
			var slab Slab
			into := func() {
				slab.Reset()
				if err := tc.TraceInto(context.Background(), &tr, &slab, dst, 0); err != nil {
					t.Fatal(err)
				}
				check(&tr)
			}
			into()
			if got := testing.AllocsPerRun(100, into); got > c.errAllocs {
				t.Errorf("TraceInto a warmed slab: %.1f allocs/op, budget %.0f", got, c.errAllocs)
			}
		})
	}
}

// A trace cancelled before its first probe returns the cause: Trace pays
// for the Trace it then drops, and TraceInto nothing.
func TestAllocBudgetTraceCancelled(t *testing.T) {
	skipUnderRace(t)
	tn := build(t, netsim.ModeSR, true, true)
	tc := tn.tracer()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var tr Trace
	var slab Slab
	for _, c := range []struct {
		name   string
		trace  func() error
		budget float64
	}{
		{"Trace", func() error { _, err := tc.Trace(ctx, tn.target, 0); return err }, 1},
		{"TraceInto", func() error { return tc.TraceInto(ctx, &tr, &slab, tn.target, 0) }, 0},
	} {
		run := func() {
			if err := c.trace(); err != context.Canceled {
				t.Fatalf("%s: err = %v, want %v", c.name, err, context.Canceled)
			}
		}
		run()
		if got := testing.AllocsPerRun(100, run); got != c.budget {
			t.Errorf("%s: %.1f allocs/op, want %.0f", c.name, got, c.budget)
		}
	}
}

// A slab allocates only a chunk when its chunks are full, or an exact
// region for a trace longer than a chunk; a region of a reused chunk, an
// empty region and Reset cost nothing. Each run resets the slab before
// each of its rounds of takes.
func TestAllocBudgetSlab(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name   string
		warm   int        // chunks of each kind taken before the first run
		rounds [][][2]int // per round, the (hops, LSEs) of each take
		budget float64
	}{
		// The second region does not fit behind the first and moves on to
		// the next chunk, which the warm-up made.
		{"reused chunks", 2, [][][2]int{{{chunkLen - 10, chunkLen - 10}, {20, 20}}}, 0},
		// A trace without labels takes no LSE region.
		{"empty region", 1, [][][2]int{{{8, 0}}}, 0},
		// The smaller round drops the second chunk of each kind, so the
		// larger one makes them again.
		{"a chunk after a smaller round", 1, [][][2]int{{{chunkLen, chunkLen}, {1, 1}}, {{1, 1}}}, 2},
		// Longer than a chunk: an exact region each, made on its own.
		{"oversized region", 1, [][][2]int{{{chunkLen + 1, chunkLen + 1}}}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s Slab
			for i := 0; i < c.warm; i++ {
				s.take(chunkLen, chunkLen)
			}
			run := func() {
				for _, round := range c.rounds {
					s.Reset()
					for _, k := range round {
						hops, lses := s.take(k[0], k[1])
						if len(hops) != 0 || cap(hops) != k[0] || len(lses) != 0 || cap(lses) != k[1] {
							t.Fatalf("take(%d, %d): hops len %d cap %d, LSEs len %d cap %d",
								k[0], k[1], len(hops), cap(hops), len(lses), cap(lses))
						}
					}
				}
			}
			run()
			if got := testing.AllocsPerRun(100, run); got != c.budget {
				t.Errorf("%.1f allocs/op, want %.0f", got, c.budget)
			}
		})
	}
}

// cannedConn answers every exchange with one fixed reply.
type cannedConn struct{ reply []byte }

func (c cannedConn) Exchange(context.Context, netip.Addr, []byte) ([]byte, float64, error) {
	return c.reply, 1, nil
}

// probeCase is one Ping or SampleIPID scenario: tc probes dst, and want
// is whether an answer comes back.
type probeCase struct {
	name string
	tc   *Tracer
	dst  netip.Addr
	ipid bool // SampleIPID rather than Ping
	want bool
}

// probeResult is what a Ping or SampleIPID returns.
type probeResult struct {
	replyTTL uint8
	sample   IPIDSample
	ok       bool
}

func (c probeCase) send() (probeResult, error) {
	var r probeResult
	var err error
	if c.ipid {
		r.sample, r.ok, err = c.tc.SampleIPID(context.Background(), c.dst, 3)
	} else {
		r.replyTTL, r.ok, err = c.tc.Ping(context.Background(), c.dst, 7)
	}
	return r, err
}

// probeCases builds the Ping and SampleIPID scenarios on a fresh chain,
// every tracer probing through wrap(conn) when wrap is non-nil.
func probeCases(t *testing.T, wrap func(Conn) Conn) []probeCase {
	tn := build(t, netsim.ModeIP, true, true)
	tn.ps[1].Profile.RespondsEcho = false
	tn.ps[2].Profile.RespondsICMP = false
	tracer := func(c Conn) *Tracer {
		if wrap != nil {
			c = wrap(c)
		}
		return NewTracer(c, tn.vp)
	}
	tr := tracer(NetsimConn{tn.net})
	// A ping answered by a time-exceeded message is no echo reply.
	echo, err := (&pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 7, Seq: 1, Body: pingPayload}).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := (&pkt.IPv4{TTL: 1, Protocol: pkt.ProtoICMP, Src: tn.vp, Dst: tn.target, Payload: echo}).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	teConn := tracer(cannedConn{timeExceededFrom(t, tn.gw.Loopback, probe)})
	return []probeCase{
		{"Ping", tr, tn.target, false, true},
		{"Ping/echo dropped", tr, tn.ps[1].Loopback, false, false},
		{"Ping/time exceeded instead of echo reply", teConn, tn.target, false, false},
		{"SampleIPID", tr, tn.target, true, true},
		{"SampleIPID/silent router", tr, tn.ps[2].Loopback, true, false},
	}
}

// Ping and SampleIPID ride the same scratch pool, and the reply lands in
// the probe's wire buffer: no probe costs anything.
func TestAllocBudgetPingAndIPID(t *testing.T) {
	skipUnderRace(t)
	for _, c := range probeCases(t, nil) {
		t.Run(c.name, func(t *testing.T) {
			run := func() {
				if r, err := c.send(); err != nil || r.ok != c.want {
					t.Fatalf("%s: ok=%v err=%v, want ok=%v", c.dst, r.ok, err, c.want)
				}
			}
			run()
			if got := testing.AllocsPerRun(200, run); got > 0 {
				t.Errorf("%s: %.1f allocs/op, budget 0", c.name, got)
			}
		})
	}
	t.Run("InferInitialTTL", func(t *testing.T) {
		run := func() {
			for _, c := range [][2]uint8{{20, 32}, {50, 64}, {100, 128}, {200, 255}} {
				if got := InferInitialTTL(c[0]); got != c[1] {
					t.Fatalf("InferInitialTTL(%d) = %d, want %d", c[0], got, c[1])
				}
			}
		}
		run()
		if got := testing.AllocsPerRun(200, run); got > 0 {
			t.Errorf("InferInitialTTL: %.1f allocs/op, budget 0", got)
		}
	})
}

// NetsimConn answers into the spare capacity of the probe's wire buffer,
// and into one allocation when there is none.
func TestAllocBudgetExchange(t *testing.T) {
	skipUnderRace(t)
	tn := build(t, netsim.ModeSR, true, true)
	probe := udpProbeWire(t, tn.vp, tn.target, 4)
	conn := NetsimConn{tn.net}
	for _, c := range []struct {
		name   string
		wire   []byte
		budget float64
	}{
		{"spare capacity", append(make([]byte, 0, wireCap), probe...), 0},
		{"no spare capacity", probe[:len(probe):len(probe)], 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func() {
				if reply, _, err := conn.Exchange(context.Background(), tn.vp, c.wire); err != nil || reply == nil {
					t.Fatalf("reply %v, err %v", reply, err)
				}
			}
			run()
			if got := testing.AllocsPerRun(200, run); got != c.budget {
				t.Errorf("Exchange: %.1f allocs/op, want %.0f", got, c.budget)
			}
		})
	}
}

// udpProbeWire serializes the tracer's UDP probe toward dst at ttl.
func udpProbeWire(t *testing.T, src, dst netip.Addr, ttl uint8) []byte {
	t.Helper()
	udp, err := (&pkt.UDP{SrcPort: PortRangeLo, DstPort: PortRangeLo, Payload: probePayload}).AppendMarshal(nil, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := (&pkt.IPv4{TTL: ttl, Protocol: pkt.ProtoUDP, ID: 9, Src: src, Dst: dst, Payload: udp}).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}
