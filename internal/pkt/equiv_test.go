package pkt

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"

	"arest/internal/mpls"
)

// The append-style fast path must be byte-identical to the legacy Marshal
// API under every buffer condition that scratch reuse produces: nil dst,
// a dst with a live prefix, and a dirty recycled buffer whose old contents
// must never leak into the new encoding. Likewise the Into decoders must
// yield the same message the copying decoders do.

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

// checkAppendEquiv verifies one message's append encoding against the
// legacy output under the three buffer conditions. scratch is reused and
// returned so successive calls exercise genuinely dirty buffers.
func checkAppendEquiv(t *testing.T, want []byte, scratch []byte,
	appendFn func(dst []byte) ([]byte, error)) []byte {
	t.Helper()
	got, err := appendFn(nil)
	if err != nil {
		t.Fatalf("AppendMarshal(nil): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendMarshal(nil) differs from Marshal:\n got %x\nwant %x", got, want)
	}
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	got, err = appendFn(prefix)
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
	return got
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
		want, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		scratch = checkAppendEquiv(t, want, scratch, p.AppendMarshal)
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
		want, err := u.Marshal(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		scratch = checkAppendEquiv(t, want, scratch, func(b []byte) ([]byte, error) {
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
	qb, err := quoted.Marshal()
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
		obj, err := NewMPLSExtension(stack)
		if err != nil {
			t.Fatal(err)
		}
		m.Extensions = []ExtensionObject{obj}
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
		want, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		scratch = checkAppendEquiv(t, want, scratch, m.AppendMarshal)

		legacy, err := UnmarshalICMP(want)
		if err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalICMPInto(&into, want); err != nil {
			t.Fatalf("UnmarshalICMPInto: %v", err)
		}
		if !icmpEqual(legacy, &into) {
			t.Fatalf("Into decode differs from legacy:\nlegacy %+v\n  into %+v", legacy, &into)
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
		want, err := stack.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		scratch = checkAppendEquiv(t, want, scratch, stack.AppendMarshal)
	}
}

// The Into decoders alias their input; the legacy wrappers must not. A
// caller-visible difference here would let a recycled reply buffer rewrite
// history inside an already-returned packet.
func TestUnmarshalIntoAliasesLegacyCopies(t *testing.T) {
	p := &IPv4{TTL: 9, Protocol: ProtoUDP, Src: netip.MustParseAddr("10.0.0.1"),
		Dst: netip.MustParseAddr("10.0.0.2"), Payload: []byte{1, 2, 3, 4}}
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := UnmarshalIPv4(wire)
	if err != nil {
		t.Fatal(err)
	}
	var into IPv4
	if err := UnmarshalIPv4Into(&into, wire); err != nil {
		t.Fatal(err)
	}
	wire[IPv4HeaderLen] = 0xff
	if into.Payload[0] != 0xff {
		t.Fatal("UnmarshalIPv4Into should alias the input buffer")
	}
	if legacy.Payload[0] != 1 {
		t.Fatal("UnmarshalIPv4 must own its payload copy")
	}
}
