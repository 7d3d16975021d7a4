package pkt

import (
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/testrace"
)

// Allocation budgets for the codec layer. The append-style encoders and
// the Into decoders are exact: with a caller-held scratch buffer they must
// not touch the heap at all. A regression there multiplies across every
// probe of every campaign, so the gate is zero, not "small". The copying
// decoders (UnmarshalIPv4, UnmarshalICMP, …), which the live raw socket
// uses, cost exactly the copies they hand the caller.
//
// Each scenario runs one codec branch. Together with the netsim, probe
// and archive tables they execute every non-error branch of the wire path;
// TestWirePathBudgetCoverage pins what stays unexecuted.

// allocCase is one scenario of a budget table: f runs the branch, and
// budget is its steady-state allocation count.
type allocCase struct {
	name   string
	budget float64
	f      func(t *testing.T)
}

// runAllocCases runs every scenario once as a check, then under
// testing.AllocsPerRun against its budget.
func runAllocCases(t *testing.T, cases []allocCase) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.f(t)
			if got := testing.AllocsPerRun(200, func() { c.f(t) }); got > c.budget {
				t.Errorf("%s: %.1f allocs/op, budget %.0f", c.name, got, c.budget)
			}
		})
	}
}

// zeroChecksumPayload returns a two-byte payload whose UDP checksum from
// src to dst on the given ports computes to zero, the value RFC 768
// transmits as all ones.
func zeroChecksumPayload(t *testing.T, src, dst netip.Addr, sport, dport uint16) []byte {
	t.Helper()
	p := make([]byte, 2)
	for v := 0; v <= 0xffff; v++ {
		p[0], p[1] = byte(v>>8), byte(v)
		b := []byte{byte(sport >> 8), byte(sport), byte(dport >> 8), byte(dport), 0, 10, 0, 0, p[0], p[1]}
		if udpChecksum(src, dst, b) == 0 {
			return p
		}
	}
	t.Fatal("no payload gives a zero UDP checksum")
	return nil
}

func TestAllocBudgetEncoders(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.0.0.2")
	payload := []byte("arest-tnt-probe")
	buf := make([]byte, 0, 512)
	keep := func(t *testing.T, b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		buf = b[:0]
	}

	udp := &UDP{SrcPort: 33434, DstPort: 33435, Payload: payload}
	zeroUDP := &UDP{SrcPort: 33434, DstPort: 33435, Payload: zeroChecksumPayload(t, src, dst, 33434, 33435)}
	ip := &IPv4{TTL: 5, Protocol: ProtoUDP, ID: 99, Src: src, Dst: dst, Payload: payload}
	df := &IPv4{TTL: 64, Protocol: ProtoUDP, ID: 7, DontFrag: true, Src: src, Dst: dst, Payload: payload}

	quote, err := ip.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	long, err := (&IPv4{TTL: 1, Protocol: ProtoUDP, Src: src, Dst: dst, Payload: make([]byte, 200)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewMPLSExtension(mpls.Stack{{Label: 16004, TTL: 254}})
	if err != nil {
		t.Fatal(err)
	}
	extended := &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote,
		Extensions: []ExtensionObject{ext}}
	longExtended := &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: long,
		Extensions: []ExtensionObject{ext}}
	plain := &ICMP{Type: ICMPDestUnreachable, Code: CodePortUnreachable, Body: quote}
	echo := &ICMP{Type: ICMPEchoRequest, ID: 33434, Seq: 3, Body: payload}
	stack := mpls.Stack{{Label: 16004, TTL: 254}, {Label: 24001, TTL: 254}}

	runAllocCases(t, []allocCase{
		{"UDP.AppendMarshal", 0, func(t *testing.T) {
			b, err := udp.AppendMarshal(buf[:0], src, dst)
			keep(t, b, err)
		}},
		{"UDP.AppendMarshal/zero checksum sent as all ones", 0, func(t *testing.T) {
			b, err := zeroUDP.AppendMarshal(buf[:0], src, dst)
			if err == nil && (b[6] != 0xff || b[7] != 0xff) {
				t.Fatalf("checksum %#02x%02x, want 0xffff", b[6], b[7])
			}
			keep(t, b, err)
		}},
		{"IPv4.AppendMarshal", 0, func(t *testing.T) {
			b, err := ip.AppendMarshal(buf[:0])
			keep(t, b, err)
		}},
		{"IPv4.AppendMarshal/DontFrag", 0, func(t *testing.T) {
			b, err := df.AppendMarshal(buf[:0])
			if err == nil && b[6] != 1<<6 {
				t.Fatalf("flags byte %#02x, want DF", b[6])
			}
			keep(t, b, err)
		}},
		{"ICMP.AppendMarshal/echo", 0, func(t *testing.T) {
			b, err := echo.AppendMarshal(buf[:0])
			keep(t, b, err)
		}},
		{"ICMP.AppendMarshal/error", 0, func(t *testing.T) {
			b, err := plain.AppendMarshal(buf[:0])
			keep(t, b, err)
		}},
		{"ICMP.AppendMarshal+ext", 0, func(t *testing.T) {
			b, err := extended.AppendMarshal(buf[:0])
			keep(t, b, err)
		}},
		{"ICMP.AppendMarshal+ext/original over 128 bytes", 0, func(t *testing.T) {
			b, err := longExtended.AppendMarshal(buf[:0])
			if err == nil && len(b) != icmpHeaderLen+origDatagramPadLen+extHeaderLen+len(ext.Payload)+objectHeaderLen {
				t.Fatalf("%d bytes: the original datagram was not cut to 128", len(b))
			}
			keep(t, b, err)
		}},
		{"Stack.AppendMarshal", 0, func(t *testing.T) {
			b, err := stack.AppendMarshal(buf[:0])
			keep(t, b, err)
		}},
		{"Stack.Marshal/empty", 0, func(t *testing.T) {
			if b, err := mpls.Stack(nil).Marshal(); b != nil || err != nil {
				t.Fatalf("empty stack: %v, %v", b, err)
			}
		}},
	})
}

func TestAllocBudgetDecoders(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.0.0.2")
	inner := &IPv4{TTL: 1, Protocol: ProtoUDP, ID: 7, Src: src, Dst: dst,
		Payload: []byte("arest-tnt-probe")}
	quote, err := inner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewMPLSExtension(mpls.Stack{{Label: 16004, TTL: 254}})
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(m *ICMP) []byte {
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	icmpWire := marshal(&ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote,
		Extensions: []ExtensionObject{ext}})
	outer := &IPv4{TTL: 60, Protocol: ProtoICMP, ID: 1234, Src: dst, Dst: src,
		Payload: icmpWire}
	wire, err := outer.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	plain := marshal(&ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote})
	// A router quoting 300 bytes under RFC 4884 cuts them to 128: the
	// decoder keeps the whole field, since the quoted total length no
	// longer fits it.
	long, err := (&IPv4{TTL: 1, Protocol: ProtoUDP, Src: src, Dst: dst, Payload: make([]byte, 280)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	longWire := marshal(&ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: long,
		Extensions: []ExtensionObject{ext}})
	// The RFC 792 minimum quote: the header and 8 payload bytes of a
	// longer datagram.
	truncated := quote[:IPv4HeaderLen+8]
	udpWire, err := (&UDP{SrcPort: 33434, DstPort: 33500, Payload: []byte("arest")}).Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	unchecked := append([]byte(nil), udpWire...)
	unchecked[6], unchecked[7] = 0, 0 // checksum disabled

	var rip IPv4
	var rm ICMP
	var qip IPv4
	var u UDP
	lses := make(mpls.Stack, 0, 4)
	// Warm up so rm.Extensions has capacity to reuse, as it does in a
	// recycled scratch.
	if err := UnmarshalIPv4Into(&rip, wire); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalICMPInto(&rm, rip.Payload); err != nil {
		t.Fatal(err)
	}
	runAllocCases(t, []allocCase{
		{"ICMP decode chain", 0, func(t *testing.T) {
			// A reply without extensions in between must not cost the next
			// extended reply its Extensions capacity.
			if err := UnmarshalICMPInto(&rm, plain); err != nil || len(rm.Extensions) != 0 {
				t.Fatalf("plain reply: ext=%d err=%v", len(rm.Extensions), err)
			}
			if err := UnmarshalIPv4Into(&rip, wire); err != nil {
				t.Fatal(err)
			}
			if err := UnmarshalICMPInto(&rm, rip.Payload); err != nil {
				t.Fatal(err)
			}
			if err := UnmarshalIPv4QuotedInto(&qip, rm.Body); err != nil {
				t.Fatal(err)
			}
			var ok bool
			if lses, ok = rm.AppendMPLSStack(lses[:0]); !ok {
				t.Fatal("no label stack")
			}
			if len(rm.Extensions) != 1 || qip.TTL != 1 || len(lses) != 1 || lses[0].Label != 16004 {
				t.Fatalf("decode chain lost content: ext=%d qttl=%d stack=%v", len(rm.Extensions), qip.TTL, lses)
			}
		}},
		{"UnmarshalICMPInto/original over 128 bytes", 0, func(t *testing.T) {
			if err := UnmarshalICMPInto(&rm, longWire); err != nil || len(rm.Body) != origDatagramPadLen {
				t.Fatalf("body %d bytes, err %v; want the whole 128-byte field", len(rm.Body), err)
			}
		}},
		{"UnmarshalIPv4QuotedInto/truncated quote", 0, func(t *testing.T) {
			if err := UnmarshalIPv4QuotedInto(&qip, truncated); err != nil || len(qip.Payload) != 8 {
				t.Fatalf("payload %d bytes, err %v; want the 8 quoted bytes", len(qip.Payload), err)
			}
		}},
		{"UnmarshalUDPInto", 0, func(t *testing.T) {
			if err := UnmarshalUDPInto(&u, src, dst, udpWire); err != nil || u.DstPort != 33500 {
				t.Fatalf("port %d, err %v", u.DstPort, err)
			}
		}},
		{"UnmarshalUDPInto/checksum disabled", 0, func(t *testing.T) {
			if err := UnmarshalUDPInto(&u, src, dst, unchecked); err != nil {
				t.Fatal(err)
			}
		}},
		// The copying decoders own what they return: the struct and one
		// copy of each payload.
		{"UnmarshalIPv4", 2, func(t *testing.T) {
			if _, err := UnmarshalIPv4(wire); err != nil {
				t.Fatal(err)
			}
		}},
		{"UnmarshalIPv4Quoted", 2, func(t *testing.T) {
			if _, err := UnmarshalIPv4Quoted(quote); err != nil {
				t.Fatal(err)
			}
		}},
		{"UnmarshalUDP", 2, func(t *testing.T) {
			if _, err := UnmarshalUDP(src, dst, udpWire); err != nil {
				t.Fatal(err)
			}
		}},
		{"UnmarshalICMP+ext", 4, func(t *testing.T) {
			if _, err := UnmarshalICMP(icmpWire); err != nil {
				t.Fatal(err)
			}
		}},
		{"ICMP.QuotedIPv4", 2, func(t *testing.T) {
			if err := UnmarshalICMPInto(&rm, icmpWire); err != nil {
				t.Fatal(err)
			}
			if _, err := rm.QuotedIPv4(); err != nil {
				t.Fatal(err)
			}
		}},
		{"ICMP.MPLSStack", 1, func(t *testing.T) {
			if err := UnmarshalICMPInto(&rm, icmpWire); err != nil {
				t.Fatal(err)
			}
			if s, ok := rm.MPLSStack(); !ok || len(s) != 1 {
				t.Fatalf("stack %v, ok %v", s, ok)
			}
		}},
	})
}
