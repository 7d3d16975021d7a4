package pkt

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"arest/internal/mpls"
)

// buildQuote builds a plausible original datagram: IPv4+UDP probe bytes.
func buildQuote(t *testing.T) []byte {
	t.Helper()
	src, dst := addr("10.0.0.1"), addr("192.0.2.9")
	u := &UDP{SrcPort: 33434, DstPort: 33435, Payload: []byte("probe-xyz")}
	ub, err := u.Marshal(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	ip := &IPv4{TTL: 1, Protocol: ProtoUDP, ID: 77, Src: src, Dst: dst, Payload: ub}
	b, err := ip.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestICMPEchoRoundTrip(t *testing.T) {
	in := &ICMP{Type: ICMPEchoRequest, ID: 0x1234, Seq: 7, Body: []byte("ping")}
	b, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != ICMPEchoRequest || out.ID != 0x1234 || out.Seq != 7 || string(out.Body) != "ping" {
		t.Errorf("round trip: %+v", out)
	}
}

func TestICMPTimeExceededPlain(t *testing.T) {
	quote := buildQuote(t)
	in := &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote}
	b, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Body, quote) {
		t.Error("quoted datagram mangled")
	}
	if len(out.Extensions) != 0 {
		t.Errorf("unexpected extensions: %d", len(out.Extensions))
	}
	q, err := out.QuotedIPv4()
	if err != nil {
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
	obj, err := NewMPLSExtension(stack)
	if err != nil {
		t.Fatal(err)
	}
	in := &ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{obj}}
	b, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// RFC 4884: original datagram padded to 128 bytes, length field 32 words.
	if b[5] != origDatagramPadLen/4 {
		t.Errorf("length field = %d words, want %d", b[5], origDatagramPadLen/4)
	}
	out, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	// The quoted datagram must come back unpadded.
	if !bytes.Equal(out.Body, quote) {
		t.Errorf("quote: got %d bytes, want %d", len(out.Body), len(quote))
	}
	got, ok := out.MPLSStack()
	if !ok {
		t.Fatal("MPLS stack not found in extensions")
	}
	if got.Depth() != 2 || got[0].Label != 16005 || got[1].Label != 37000 {
		t.Errorf("stack = %v", got)
	}
	if !got[1].S || got[0].S {
		t.Errorf("bottom-of-stack bits wrong: %v", got)
	}
	q, err := out.QuotedIPv4()
	if err != nil {
		t.Fatalf("quoted IPv4 unparseable after pad/trim: %v", err)
	}
	u, err := UnmarshalUDP(q.Src, q.Dst, q.Payload)
	if err != nil {
		t.Fatalf("quoted UDP: %v", err)
	}
	if u.DstPort != 33435 {
		t.Errorf("quoted dst port = %d", u.DstPort)
	}
}

func TestICMPChecksumValidation(t *testing.T) {
	in := &ICMP{Type: ICMPEchoReply, ID: 1, Seq: 1, Body: []byte("x")}
	b, _ := in.Marshal()
	b[4] ^= 0xaa
	if _, err := UnmarshalICMP(b); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestICMPExtensionChecksumValidation(t *testing.T) {
	quote := buildQuote(t)
	obj, _ := NewMPLSExtension(mpls.Stack{{Label: 16005, TTL: 1}})
	in := &ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{obj}}
	b, _ := in.Marshal()
	// Corrupt one byte inside the extension payload and fix the outer ICMP
	// checksum so only the extension checksum catches it.
	extStart := icmpHeaderLen + origDatagramPadLen
	b[extStart+extHeaderLen+objectHeaderLen] ^= 0x01
	b[2], b[3] = 0, 0
	ck := Checksum(b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	if _, err := UnmarshalICMP(b); !errors.Is(err, ErrBadExtension) {
		t.Errorf("err = %v, want ErrBadExtension", err)
	}
}

func TestICMPBadExtensionVersion(t *testing.T) {
	quote := buildQuote(t)
	obj, _ := NewMPLSExtension(mpls.Stack{{Label: 16005, TTL: 1}})
	in := &ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{obj}}
	b, _ := in.Marshal()
	extStart := icmpHeaderLen + origDatagramPadLen
	b[extStart] = 1 << 4 // wrong version
	b[2], b[3] = 0, 0
	ck := Checksum(b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	if _, err := UnmarshalICMP(b); !errors.Is(err, ErrBadExtension) {
		t.Errorf("err = %v, want ErrBadExtension", err)
	}
}

func TestICMPMultipleExtensionObjects(t *testing.T) {
	quote := buildQuote(t)
	obj1, _ := NewMPLSExtension(mpls.Stack{{Label: 16005, TTL: 2}})
	obj2 := ExtensionObject{Class: 3, CType: 1, Payload: []byte{1, 2, 3, 4}} // e.g. interface info
	in := &ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{obj2, obj1}}
	b, _ := in.Marshal()
	out, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Extensions) != 2 {
		t.Fatalf("extensions = %d, want 2", len(out.Extensions))
	}
	if s, ok := out.MPLSStack(); !ok || s[0].Label != 16005 {
		t.Errorf("MPLS object not recovered: %v %v", s, ok)
	}
}

func TestICMPNoMPLSStack(t *testing.T) {
	m := &ICMP{Type: ICMPTimeExceeded, Body: buildQuote(t)}
	b, _ := m.Marshal()
	out, _ := UnmarshalICMP(b)
	if _, ok := out.MPLSStack(); ok {
		t.Error("MPLSStack found where none encoded")
	}
}

func TestICMPPortUnreachable(t *testing.T) {
	in := &ICMP{Type: ICMPDestUnreachable, Code: CodePortUnreachable, Body: buildQuote(t)}
	b, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != ICMPDestUnreachable || out.Code != CodePortUnreachable {
		t.Errorf("type/code = %d/%d", out.Type, out.Code)
	}
	if !out.IsError() {
		t.Error("IsError = false")
	}
}

func TestICMPQuotedIPv4OnEcho(t *testing.T) {
	m := &ICMP{Type: ICMPEchoRequest}
	if _, err := m.QuotedIPv4(); err == nil {
		t.Error("QuotedIPv4 on echo should fail")
	}
}

func TestICMPUnsupportedType(t *testing.T) {
	if _, err := (&ICMP{Type: 42}).Marshal(); err == nil {
		t.Error("Marshal of unsupported type succeeded")
	}
	b := []byte{42, 0, 0, 0, 0, 0, 0, 0}
	ck := Checksum(b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	if _, err := UnmarshalICMP(b); err == nil {
		t.Error("Unmarshal of unsupported type succeeded")
	}
}

func TestICMPShort(t *testing.T) {
	if _, err := UnmarshalICMP(make([]byte, 7)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("err = %v", err)
	}
}

func TestICMPTruncatedOriginalDatagram(t *testing.T) {
	quote := buildQuote(t)
	obj, _ := NewMPLSExtension(mpls.Stack{{Label: 1600, TTL: 3}})
	in := &ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{obj}}
	b, _ := in.Marshal()
	cut := b[:icmpHeaderLen+64] // cut inside the padded original datagram
	ck := Checksum(cut[:2])
	_ = ck
	cut[2], cut[3] = 0, 0
	c := Checksum(cut)
	cut[2], cut[3] = byte(c>>8), byte(c)
	if _, err := UnmarshalICMP(cut); !errors.Is(err, ErrBadExtension) {
		t.Errorf("err = %v, want ErrBadExtension", err)
	}
}

func TestICMPFullExchangeThroughIPv4(t *testing.T) {
	// End-to-end: an LSR builds a time-exceeded with a quoted stack, wraps
	// it in IPv4, and a prober on the other side digs the stack back out.
	quote := buildQuote(t)
	stack := mpls.Stack{{Label: 24017, TTL: 254}, {Label: 16008, TTL: 254}}
	obj, _ := NewMPLSExtension(stack)
	icmp := &ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{obj}}
	ib, err := icmp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ip := &IPv4{TTL: 255, Protocol: ProtoICMP, Src: addr("10.9.9.9"), Dst: addr("10.0.0.1"), Payload: ib}
	wire, err := ip.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	rxIP, err := UnmarshalIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	if rxIP.Protocol != ProtoICMP {
		t.Fatalf("proto = %d", rxIP.Protocol)
	}
	rxICMP, err := UnmarshalICMP(rxIP.Payload)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rxICMP.MPLSStack()
	if !ok || !slices.Equal(got, mpls.Stack{{Label: 24017, TTL: 254}, {Label: 16008, TTL: 254, S: true}}) {
		t.Errorf("stack = %v ok=%v", got, ok)
	}
}
