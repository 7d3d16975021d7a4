package pkt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"arest/internal/mpls"
)

// buildQuote builds a plausible original datagram: IPv4+UDP probe bytes.
func buildQuote(t testing.TB) []byte {
	t.Helper()
	src, dst := addr("10.0.0.1"), addr("192.0.2.9")
	u := &UDP{SrcPort: 33434, DstPort: 33435, Payload: []byte("probe-xyz")}
	ub, err := u.AppendMarshal(nil, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	ip := &IPv4{TTL: 1, Protocol: ProtoUDP, ID: 77, Src: src, Dst: dst, Payload: ub}
	b, err := ip.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mplsObject builds the RFC 4950 incoming-label-stack object quoting s,
// as the simulator's routers do.
func mplsObject(t testing.TB, s mpls.Stack) ExtensionObject {
	t.Helper()
	payload, err := s.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return ExtensionObject{Class: ClassMPLSLabelStack, CType: CTypeIncomingStack, Payload: payload}
}

// marshalICMP serializes m, failing the test on error.
func marshalICMP(t testing.TB, m *ICMP) []byte {
	t.Helper()
	b, err := m.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestICMPEchoRoundTrip(t *testing.T) {
	in := &ICMP{Type: ICMPEchoRequest, ID: 0x1234, Seq: 7, Body: []byte("ping")}
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalICMP(t, in)); err != nil {
		t.Fatal(err)
	}
	if out.Type != ICMPEchoRequest || out.ID != 0x1234 || out.Seq != 7 || string(out.Body) != "ping" {
		t.Errorf("round trip: %+v", out)
	}
}

func TestICMPTimeExceededPlain(t *testing.T) {
	quote := buildQuote(t)
	in := &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote}
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalICMP(t, in)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Body, quote) {
		t.Error("quoted datagram mangled")
	}
	if len(out.Extensions) != 0 {
		t.Errorf("unexpected extensions: %d", len(out.Extensions))
	}
	var q IPv4
	if err := UnmarshalIPv4QuotedInto(&q, out.Body); err != nil {
		t.Fatal(err)
	}
	if q.ID != 77 {
		t.Errorf("quoted IP ID = %d, want 77", q.ID)
	}
}

func TestICMPTimeExceededWithMPLSExtension(t *testing.T) {
	quote := buildQuote(t)
	stack := mpls.Stack{
		{Label: 16005, TC: 0, TTL: 253},
		{Label: 37000, TC: 0, TTL: 253},
	}
	in := &ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{mplsObject(t, stack)}}
	b := marshalICMP(t, in)
	// RFC 4884: original datagram padded to 128 bytes, length field 32 words.
	if b[5] != origDatagramPadLen/4 {
		t.Errorf("length field = %d words, want %d", b[5], origDatagramPadLen/4)
	}
	var out ICMP
	if err := UnmarshalICMPInto(&out, b); err != nil {
		t.Fatal(err)
	}
	// The quoted datagram must come back unpadded.
	if !bytes.Equal(out.Body, quote) {
		t.Errorf("quote: got %d bytes, want %d", len(out.Body), len(quote))
	}
	got, ok := out.AppendMPLSStack(nil)
	if !ok {
		t.Fatal("MPLS stack not found in extensions")
	}
	if got.Depth() != 2 || got[0].Label != 16005 || got[1].Label != 37000 {
		t.Errorf("stack = %v", got)
	}
	if !got[1].S || got[0].S {
		t.Errorf("bottom-of-stack bits wrong: %v", got)
	}
	var q IPv4
	if err := UnmarshalIPv4QuotedInto(&q, out.Body); err != nil {
		t.Fatalf("quoted IPv4 unparseable after pad/trim: %v", err)
	}
	if udpChecksum(q.Src, q.Dst, q.Payload) != 0 {
		t.Error("quoted UDP datagram fails its checksum after pad/trim")
	}
	if port := binary.BigEndian.Uint16(q.Payload[2:]); port != 33435 {
		t.Errorf("quoted dst port = %d", port)
	}
}

func TestICMPChecksumValidation(t *testing.T) {
	b := marshalICMP(t, &ICMP{Type: ICMPEchoReply, ID: 1, Seq: 1, Body: []byte("x")})
	b[4] ^= 0xaa
	var out ICMP
	if err := UnmarshalICMPInto(&out, b); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestICMPExtensionChecksumValidation(t *testing.T) {
	obj := mplsObject(t, mpls.Stack{{Label: 16005, TTL: 1}})
	b := marshalICMP(t, &ICMP{Type: ICMPTimeExceeded, Body: buildQuote(t), Extensions: []ExtensionObject{obj}})
	// Corrupt one byte inside the extension payload and fix the outer ICMP
	// checksum so only the extension checksum catches it.
	extStart := icmpHeaderLen + origDatagramPadLen
	b[extStart+extHeaderLen+objectHeaderLen] ^= 0x01
	reseal(b)
	var out ICMP
	if err := UnmarshalICMPInto(&out, b); !errors.Is(err, ErrBadExtension) {
		t.Errorf("err = %v, want ErrBadExtension", err)
	}
}

func TestICMPBadExtensionVersion(t *testing.T) {
	obj := mplsObject(t, mpls.Stack{{Label: 16005, TTL: 1}})
	b := marshalICMP(t, &ICMP{Type: ICMPTimeExceeded, Body: buildQuote(t), Extensions: []ExtensionObject{obj}})
	extStart := icmpHeaderLen + origDatagramPadLen
	b[extStart] = 1 << 4 // wrong version
	reseal(b)
	var out ICMP
	if err := UnmarshalICMPInto(&out, b); !errors.Is(err, ErrBadExtension) {
		t.Errorf("err = %v, want ErrBadExtension", err)
	}
}

func TestICMPMultipleExtensionObjects(t *testing.T) {
	obj1 := mplsObject(t, mpls.Stack{{Label: 16005, TTL: 2}})
	obj2 := ExtensionObject{Class: 3, CType: 1, Payload: []byte{1, 2, 3, 4}} // e.g. interface info
	in := &ICMP{Type: ICMPTimeExceeded, Body: buildQuote(t), Extensions: []ExtensionObject{obj2, obj1}}
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalICMP(t, in)); err != nil {
		t.Fatal(err)
	}
	if len(out.Extensions) != 2 {
		t.Fatalf("extensions = %d, want 2", len(out.Extensions))
	}
	if s, ok := out.AppendMPLSStack(nil); !ok || s[0].Label != 16005 {
		t.Errorf("MPLS object not recovered: %v %v", s, ok)
	}
}

func TestICMPNoMPLSStack(t *testing.T) {
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalICMP(t, &ICMP{Type: ICMPTimeExceeded, Body: buildQuote(t)})); err != nil {
		t.Fatal(err)
	}
	if _, ok := out.AppendMPLSStack(nil); ok {
		t.Error("AppendMPLSStack found a stack where none was encoded")
	}
}

func TestICMPPortUnreachable(t *testing.T) {
	in := &ICMP{Type: ICMPDestUnreachable, Code: CodePortUnreachable, Body: buildQuote(t)}
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalICMP(t, in)); err != nil {
		t.Fatal(err)
	}
	if out.Type != ICMPDestUnreachable || out.Code != CodePortUnreachable {
		t.Errorf("type/code = %d/%d", out.Type, out.Code)
	}
	if !out.IsError() {
		t.Error("IsError = false")
	}
}

func TestICMPUnsupportedType(t *testing.T) {
	if _, err := (&ICMP{Type: 42}).AppendMarshal(nil); err == nil {
		t.Error("AppendMarshal of unsupported type succeeded")
	}
	b := []byte{42, 0, 0, 0, 0, 0, 0, 0}
	reseal(b)
	var out ICMP
	if err := UnmarshalICMPInto(&out, b); err == nil {
		t.Error("UnmarshalICMPInto of unsupported type succeeded")
	}
}

func TestICMPShort(t *testing.T) {
	var out ICMP
	if err := UnmarshalICMPInto(&out, make([]byte, 7)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("err = %v", err)
	}
}

func TestICMPTruncatedOriginalDatagram(t *testing.T) {
	obj := mplsObject(t, mpls.Stack{{Label: 1600, TTL: 3}})
	b := marshalICMP(t, &ICMP{Type: ICMPTimeExceeded, Body: buildQuote(t), Extensions: []ExtensionObject{obj}})
	cut := b[:icmpHeaderLen+64] // cut inside the padded original datagram
	reseal(cut)
	var out ICMP
	if err := UnmarshalICMPInto(&out, cut); !errors.Is(err, ErrBadExtension) {
		t.Errorf("err = %v, want ErrBadExtension", err)
	}
}

func TestICMPFullExchangeThroughIPv4(t *testing.T) {
	// End-to-end: an LSR builds a time-exceeded with a quoted stack, wraps
	// it in IPv4, and a prober on the other side digs the stack back out.
	stack := mpls.Stack{{Label: 24017, TTL: 254}, {Label: 16008, TTL: 254}}
	icmp := &ICMP{Type: ICMPTimeExceeded, Body: buildQuote(t), Extensions: []ExtensionObject{mplsObject(t, stack)}}
	ip := &IPv4{TTL: 255, Protocol: ProtoICMP, Src: addr("10.9.9.9"), Dst: addr("10.0.0.1"), Payload: marshalICMP(t, icmp)}
	wire, err := ip.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}

	var rxIP IPv4
	if err := UnmarshalIPv4Into(&rxIP, wire); err != nil {
		t.Fatal(err)
	}
	if rxIP.Protocol != ProtoICMP {
		t.Fatalf("proto = %d", rxIP.Protocol)
	}
	var rxICMP ICMP
	if err := UnmarshalICMPInto(&rxICMP, rxIP.Payload); err != nil {
		t.Fatal(err)
	}
	got, ok := rxICMP.AppendMPLSStack(nil)
	if !ok || !slices.Equal(got, mpls.Stack{{Label: 24017, TTL: 254}, {Label: 16008, TTL: 254, S: true}}) {
		t.Errorf("stack = %v ok=%v", got, ok)
	}
}
