package pkt

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"

	"arest/internal/mpls"
)

// The append-style encoders must write the same bytes under every buffer
// condition that scratch reuse produces: a nil dst, a dst with a live
// prefix, and a dirty recycled buffer whose old contents must never leak
// into the new encoding. Likewise the Into decoders must yield the
// encoded message again, whatever a reused struct held before.

const equivRounds = 200

func randV4(rng *rand.Rand) netip.Addr {
	var a [4]byte
	rng.Read(a[:])
	return netip.AddrFrom4(a)
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// checkAppendEquiv verifies that one message's append encoding onto a
// live prefix and onto a dirty scratch buffer equals its encoding onto
// nil, which it returns with the scratch. scratch is reused so successive
// calls exercise genuinely dirty buffers.
func checkAppendEquiv(t *testing.T, scratch []byte,
	appendFn func(dst []byte) ([]byte, error)) (want, dirty []byte) {
	t.Helper()
	want, err := appendFn(nil)
	if err != nil {
		t.Fatalf("AppendMarshal(nil): %v", err)
	}
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	got, err := appendFn(prefix)
	if err != nil {
		t.Fatalf("AppendMarshal(prefix): %v", err)
	}
	if !bytes.Equal(got[:4], prefix) {
		t.Fatalf("AppendMarshal clobbered its prefix: %x", got[:4])
	}
	if !bytes.Equal(got[4:], want) {
		t.Fatalf("AppendMarshal(prefix) suffix differs:\n got %x\nwant %x", got[4:], want)
	}
	// Dirty recycled buffer: poison whatever capacity is there, then
	// append from length zero. Any stale byte showing through means an
	// encoder skipped part of the region it claimed.
	for i := range scratch[:cap(scratch)] {
		scratch[:cap(scratch)][i] = 0xa5
	}
	got, err = appendFn(scratch[:0])
	if err != nil {
		t.Fatalf("AppendMarshal(dirty): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendMarshal(dirty scratch) differs:\n got %x\nwant %x", got, want)
	}
	return want, got
}

func TestAppendMarshalEquivalenceIPv4(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	var scratch []byte
	for i := 0; i < equivRounds; i++ {
		p := &IPv4{
			TTL:      uint8(1 + rng.Intn(255)),
			Protocol: uint8(rng.Intn(256)),
			ID:       uint16(rng.Intn(1 << 16)),
			DontFrag: rng.Intn(2) == 0,
			Src:      randV4(rng),
			Dst:      randV4(rng),
			Payload:  randBytes(rng, rng.Intn(64)),
		}
		_, scratch = checkAppendEquiv(t, scratch, p.AppendMarshal)
	}
}

func TestAppendMarshalEquivalenceUDP(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	var scratch []byte
	for i := 0; i < equivRounds; i++ {
		src, dst := randV4(rng), randV4(rng)
		u := &UDP{
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: uint16(rng.Intn(1 << 16)),
			Payload: randBytes(rng, rng.Intn(64)),
		}
		_, scratch = checkAppendEquiv(t, scratch, func(b []byte) ([]byte, error) {
			return u.AppendMarshal(b, src, dst)
		})
	}
}

// randICMP builds a random echo or error message; error messages quote a
// valid serialized IPv4 datagram and half of them carry an RFC 4950 stack.
func randICMP(t *testing.T, rng *rand.Rand) *ICMP {
	t.Helper()
	if rng.Intn(2) == 0 {
		typ := uint8(ICMPEchoRequest)
		if rng.Intn(2) == 0 {
			typ = ICMPEchoReply
		}
		return &ICMP{Type: typ, ID: uint16(rng.Intn(1 << 16)),
			Seq: uint16(rng.Intn(1 << 16)), Body: randBytes(rng, rng.Intn(48))}
	}
	quoted := &IPv4{TTL: 1, Protocol: ProtoUDP, ID: uint16(rng.Intn(1 << 16)),
		Src: randV4(rng), Dst: randV4(rng), Payload: randBytes(rng, 8+rng.Intn(24))}
	qb, err := quoted.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: qb}
	if rng.Intn(2) == 0 {
		m.Type, m.Code = ICMPDestUnreachable, CodePortUnreachable
	}
	if rng.Intn(2) == 0 {
		stack := make(mpls.Stack, 1+rng.Intn(4))
		for j := range stack {
			stack[j] = mpls.LSE{Label: uint32(16 + rng.Intn(1<<20-16)),
				TC: uint8(rng.Intn(8)), TTL: uint8(rng.Intn(256))}
		}
		m.Extensions = []ExtensionObject{mplsObject(t, stack)}
	}
	return m
}

func icmpEqual(a, b *ICMP) bool {
	if a.Type != b.Type || a.Code != b.Code || a.ID != b.ID || a.Seq != b.Seq {
		return false
	}
	if !bytes.Equal(a.Body, b.Body) || len(a.Extensions) != len(b.Extensions) {
		return false
	}
	for i := range a.Extensions {
		if a.Extensions[i].Class != b.Extensions[i].Class ||
			a.Extensions[i].CType != b.Extensions[i].CType ||
			!bytes.Equal(a.Extensions[i].Payload, b.Extensions[i].Payload) {
			return false
		}
	}
	return true
}

func TestAppendMarshalEquivalenceICMP(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	var scratch []byte
	var into ICMP
	for i := 0; i < equivRounds; i++ {
		m := randICMP(t, rng)
		var want []byte
		want, scratch = checkAppendEquiv(t, scratch, m.AppendMarshal)

		// into keeps the Extensions capacity of earlier rounds.
		if err := UnmarshalICMPInto(&into, want); err != nil {
			t.Fatalf("UnmarshalICMPInto: %v", err)
		}
		if !icmpEqual(m, &into) {
			t.Fatalf("decode differs from the encoded message:\n sent %+v\n into %+v", m, &into)
		}
	}
}

func TestAppendMarshalEquivalenceMPLSStack(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	var scratch []byte
	for i := 0; i < equivRounds; i++ {
		stack := make(mpls.Stack, 1+rng.Intn(6))
		for j := range stack {
			stack[j] = mpls.LSE{Label: uint32(rng.Intn(1 << 20)),
				TC: uint8(rng.Intn(8)), TTL: uint8(rng.Intn(256))}
		}
		_, scratch = checkAppendEquiv(t, scratch, stack.AppendMarshal)
	}
}

// The Into decoders alias their input instead of copying it: a decoded
// packet is only valid while its buffer is, which is why the prober
// copies what it keeps out of a reply before its next probe.
func TestUnmarshalIntoAliasesInput(t *testing.T) {
	p := &IPv4{TTL: 9, Protocol: ProtoICMP, Src: netip.MustParseAddr("10.0.0.1"),
		Dst: netip.MustParseAddr("10.0.0.2"), Payload: marshalICMP(t, &ICMP{Type: ICMPEchoRequest, Body: []byte{1, 2, 3, 4}})}
	wire, err := p.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var ip IPv4
	var m ICMP
	if err := UnmarshalIPv4Into(&ip, wire); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalICMPInto(&m, ip.Payload); err != nil {
		t.Fatal(err)
	}
	wire[IPv4HeaderLen+icmpHeaderLen] = 0xff
	if ip.Payload[icmpHeaderLen] != 0xff || m.Body[0] != 0xff {
		t.Fatal("UnmarshalIPv4Into and UnmarshalICMPInto should alias the input buffer")
	}
}
