package probe

import (
	"context"
	"encoding/binary"
	"net/netip"
	"testing"

	"arest/internal/netsim"
	"arest/internal/obs"
	"arest/internal/pkt"
)

// captureConn records every probe sent and answers with a canned reply
// (nil = silence).
type captureConn struct {
	sent    [][]byte
	replyFn func(wire []byte) []byte
}

func (c *captureConn) Exchange(ctx context.Context, src netip.Addr, wire []byte) ([]byte, float64, error) {
	c.sent = append(c.sent, append([]byte(nil), wire...))
	if c.replyFn == nil {
		return nil, 0, nil
	}
	return c.replyFn(wire), 1.25, nil
}

// sentDport extracts the UDP destination port of a captured probe.
func sentDport(t *testing.T, wire []byte) uint16 {
	t.Helper()
	var ip pkt.IPv4
	if err := pkt.UnmarshalIPv4Into(&ip, wire); err != nil {
		t.Fatalf("probe wire: %v", err)
	}
	if ip.Protocol != pkt.ProtoUDP || len(ip.Payload) < 4 {
		t.Fatalf("not a UDP probe")
	}
	return binary.BigEndian.Uint16(ip.Payload[2:4])
}

// TestFlowPortStaysInTracerouteRange is the regression test for the
// PortRangeLo+flowID uint16 wrap: the first flow ID past the wrap point
// must still probe inside [33434, 65535), not land on a well-known port.
func TestFlowPortStaysInTracerouteRange(t *testing.T) {
	conn := &captureConn{}
	tr := NewTracer(conn, a("172.16.0.10"))
	tr.MaxTTL = 1
	tr.Retries = 0
	tr.Reveal = false

	wrapFlow := uint16(0xFFFF - PortRangeLo + 1) // a plain uint16 sum wraps to port 0
	if _, err := tr.Trace(context.Background(), a("100.1.0.20"), wrapFlow); err != nil {
		t.Fatal(err)
	}
	got := sentDport(t, conn.sent[0])
	if got < PortRangeLo || got >= PortRangeHi {
		t.Fatalf("flow %d probed port %d, outside [%d, %d)", wrapFlow, got, PortRangeLo, PortRangeHi)
	}

	// Unwrapped flow IDs keep their exact historical port.
	conn.sent = nil
	if _, err := tr.Trace(context.Background(), a("100.1.0.20"), 7); err != nil {
		t.Fatal(err)
	}
	if got := sentDport(t, conn.sent[0]); got != PortRangeLo+7 {
		t.Fatalf("flow 7 probed port %d, want %d", got, PortRangeLo+7)
	}

	// Property: every flow ID lands in range.
	for _, flow := range []uint16{0, 1, 1000, 32101, 32102, 40000, 0xFFFF} {
		if p := flowPort(flow); p < PortRangeLo || p >= PortRangeHi {
			t.Errorf("flowPort(%d) = %d, out of range", flow, p)
		}
	}
}

// TestTraceHaltsOnPeriod1Loop drives the tracer over a netsim world with a
// self-looping FIB entry: the looping router answers every TTL, which the
// old ttl-prev>1 revisit check never catches. The trace must halt with
// HaltLoop after 3 consecutive identical responders instead of burning the
// whole MaxTTL sweep.
func TestTraceHaltsOnPeriod1Loop(t *testing.T) {
	tn := build(t, netsim.ModeIP, true, true)
	tn.net.SetNextHopOverride(tn.pe1.ID, tn.pe2.ID, tn.pe1.ID) // pe2 owns the target

	reg := obs.New()
	tr := tn.tracer()
	tr.Metrics = NewMetrics(reg)
	trace, err := tr.Trace(context.Background(), tn.target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Halt != HaltLoop {
		t.Fatalf("halt = %v, want loop\n%s", trace.Halt, trace)
	}
	// gw, pe1-iface expiry, then 3 looping answers: well short of MaxTTL.
	if len(trace.Hops) >= tr.MaxTTL {
		t.Fatalf("loop burned the full sweep: %d hops\n%s", len(trace.Hops), trace)
	}
	last := trace.Hops[len(trace.Hops)-1]
	prev := trace.Hops[len(trace.Hops)-2]
	if !last.Responded() || last.Addr != prev.Addr {
		t.Fatalf("expected trailing identical responders\n%s", trace)
	}
	if got := reg.Snapshot().Counters["probe.halt.loop"]; got != 1 {
		t.Errorf("probe.halt.loop = %d, want 1", got)
	}
}

// TestTraceStillDetectsLongerPeriodLoops keeps the revisit check honest: a
// period-2 loop (addresses alternating A, B, A) must still halt.
func TestTraceStillDetectsLongerPeriodLoops(t *testing.T) {
	addrA, addrB := a("9.9.9.1"), a("9.9.9.2")
	seq := []netip.Addr{addrA, addrB, addrA, addrB, addrA}
	i := 0
	conn := &captureConn{}
	conn.replyFn = func(wire []byte) []byte {
		src := seq[i%len(seq)]
		i++
		return timeExceededFrom(t, src, wire)
	}
	tr := NewTracer(conn, a("172.16.0.10"))
	tr.Reveal = false
	trace, err := tr.Trace(context.Background(), a("100.1.0.20"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Halt != HaltLoop {
		t.Fatalf("halt = %v, want loop\n%s", trace.Halt, trace)
	}
}

// timeExceededFrom builds a well-formed time-exceeded reply quoting wire.
func timeExceededFrom(t *testing.T, src netip.Addr, wire []byte) []byte {
	t.Helper()
	var q pkt.IPv4
	if err := pkt.UnmarshalIPv4Into(&q, wire); err != nil {
		t.Fatal(err)
	}
	msg := &pkt.ICMP{Type: pkt.ICMPTimeExceeded, Code: pkt.CodeTTLExceeded, Body: wire[:min(len(wire), 28)]}
	payload, err := msg.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	ip := &pkt.IPv4{TTL: 250, Protocol: pkt.ProtoICMP, Src: src, Dst: q.Src, Payload: payload}
	b, err := ip.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeErrorHopKeepsResponder is the regression test for replies whose
// ICMP payload fails strict parsing: the responder address and RTT must be
// kept (flagged, counted) instead of being converted into a silent gap with
// pointless retries.
func TestDecodeErrorHopKeepsResponder(t *testing.T) {
	responder := a("9.9.9.9")
	conn := &captureConn{}
	conn.replyFn = func(wire []byte) []byte {
		var q pkt.IPv4
		if err := pkt.UnmarshalIPv4Into(&q, wire); err != nil {
			t.Fatal(err)
		}
		// Valid IPv4 wrapping an ICMP message with a corrupted checksum.
		msg := &pkt.ICMP{Type: pkt.ICMPTimeExceeded, Code: pkt.CodeTTLExceeded, Body: wire[:28]}
		payload, err := msg.AppendMarshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		payload[2] ^= 0xFF // break the ICMP checksum
		ip := &pkt.IPv4{TTL: 250, Protocol: pkt.ProtoICMP, Src: responder, Dst: q.Src, Payload: payload}
		b, err := ip.AppendMarshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	reg := obs.New()
	tr := NewTracer(conn, a("172.16.0.10"))
	tr.MaxTTL = 1
	tr.Retries = 2
	tr.Reveal = false
	tr.Metrics = NewMetrics(reg)

	trace, err := tr.Trace(context.Background(), a("100.1.0.20"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.sent) != 1 {
		t.Fatalf("sent %d probes, want 1 (no retries for a responding hop)", len(conn.sent))
	}
	hop := trace.Hops[0]
	if !hop.Responded() || hop.Addr != responder {
		t.Fatalf("responder lost: %+v", hop)
	}
	if !hop.DecodeError {
		t.Fatalf("hop not flagged as decode error: %+v", hop)
	}
	if hop.RTT == 0 {
		t.Fatalf("RTT discarded: %+v", hop)
	}
	// ICMPType is unknown (zero value) but must not read as destination
	// reached under ICMP-echo probing.
	if trace.Halt == HaltReached {
		t.Fatalf("decode-error hop misread as destination reached")
	}
	s := reg.Snapshot()
	if s.Counters["probe.decode_error"] != 1 {
		t.Errorf("probe.decode_error = %d, want 1", s.Counters["probe.decode_error"])
	}
	if s.Counters["probe.retries"] != 0 {
		t.Errorf("probe.retries = %d, want 0", s.Counters["probe.retries"])
	}
	if s.Counters["probe.gaps"] != 0 {
		t.Errorf("probe.gaps = %d, want 0", s.Counters["probe.gaps"])
	}
}

// TestDecodeErrorNotReachedUnderICMPEcho pins the halt guard: a
// decode-error hop carries ICMPType zero, which equals ICMPEchoReply, and
// must not halt an ICMP-method trace as reached.
func TestDecodeErrorNotReachedUnderICMPEcho(t *testing.T) {
	responders := []netip.Addr{a("9.9.9.1"), a("9.9.9.2"), a("9.9.9.3")}
	i := 0
	conn := &captureConn{}
	conn.replyFn = func(wire []byte) []byte {
		var q pkt.IPv4
		if err := pkt.UnmarshalIPv4Into(&q, wire); err != nil {
			t.Fatal(err)
		}
		src := responders[i%len(responders)]
		i++
		ip := &pkt.IPv4{TTL: 250, Protocol: pkt.ProtoICMP, Src: src, Dst: q.Src,
			Payload: []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 1}} // unparseable ICMP
		b, err := ip.AppendMarshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	tr := NewTracer(conn, a("172.16.0.10"))
	tr.Method = MethodICMP
	tr.MaxTTL = 3
	tr.Reveal = false
	trace, err := tr.Trace(context.Background(), a("100.1.0.20"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Halt == HaltReached {
		t.Fatalf("undecodable replies halted the trace as reached\n%s", trace)
	}
	if len(trace.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(trace.Hops))
	}
}
