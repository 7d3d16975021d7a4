package pkt

import (
	"testing"

	"arest/internal/mpls"
	"arest/internal/testrace"
)

// Allocation budgets for the codec layer. These are exact: with a
// caller-held scratch buffer and an Into decoder, the wire codecs must not
// touch the heap at all. A regression here multiplies across every probe
// of every campaign, so the gate is zero, not "small".

func requireAllocs(t *testing.T, name string, want float64, f func()) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	if got := testing.AllocsPerRun(200, f); got > want {
		t.Errorf("%s: %.1f allocs/op, budget %.1f", name, got, want)
	}
}

func TestAllocBudgetEncoders(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("10.0.0.2")
	payload := []byte("arest-tnt-probe")
	udp := &UDP{SrcPort: 33434, DstPort: 33435, Payload: payload}
	buf := make([]byte, 0, 512)

	requireAllocs(t, "UDP.AppendMarshal", 0, func() {
		b, err := udp.AppendMarshal(buf[:0], src, dst)
		if err != nil {
			t.Fatal(err)
		}
		buf = b[:0]
	})

	ip := &IPv4{TTL: 5, Protocol: ProtoUDP, ID: 99, Src: src, Dst: dst, Payload: payload}
	requireAllocs(t, "IPv4.AppendMarshal", 0, func() {
		b, err := ip.AppendMarshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = b[:0]
	})

	quote, err := ip.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ext, err := NewMPLSExtension(mpls.Stack{{Label: 16004, TTL: 254}})
	if err != nil {
		t.Fatal(err)
	}
	msg := &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote,
		Extensions: []ExtensionObject{ext}}
	requireAllocs(t, "ICMP.AppendMarshal+ext", 0, func() {
		b, err := msg.AppendMarshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = b[:0]
	})

	stack := mpls.Stack{{Label: 16004, TTL: 254}, {Label: 24001, TTL: 254}}
	requireAllocs(t, "Stack.AppendMarshal", 0, func() {
		b, err := stack.AppendMarshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = b[:0]
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
	msg := &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote,
		Extensions: []ExtensionObject{ext}}
	icmpWire, err := msg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	outer := &IPv4{TTL: 60, Protocol: ProtoICMP, ID: 1234, Src: dst, Dst: src,
		Payload: icmpWire}
	wire, err := outer.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	plain, err := (&ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote}).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	var rip IPv4
	var rm ICMP
	var qip IPv4
	lses := make(mpls.Stack, 0, 4)
	// Warm up so rm.Extensions has capacity to reuse, as it does in a
	// recycled scratch.
	if err := UnmarshalIPv4Into(&rip, wire); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalICMPInto(&rm, rip.Payload); err != nil {
		t.Fatal(err)
	}
	requireAllocs(t, "ICMP decode chain", 0, func() {
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
	})
	if len(rm.Extensions) != 1 || qip.TTL != 1 || len(lses) != 1 || lses[0].Label != 16004 {
		t.Fatalf("decode chain lost content: ext=%d qttl=%d stack=%v", len(rm.Extensions), qip.TTL, lses)
	}
}
