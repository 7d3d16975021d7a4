package pkt

import (
	"bytes"
	"testing"
)

func TestAppendPaddedOriginalPadsShortQuote(t *testing.T) {
	orig := []byte{1, 2, 3, 4, 5}
	got := appendPaddedOriginal(nil, orig)
	if len(got) != origDatagramPadLen {
		t.Fatalf("padded length = %d, want %d", len(got), origDatagramPadLen)
	}
	if !bytes.Equal(got[:5], orig) {
		t.Fatalf("quote prefix = %x", got[:5])
	}
	for i, b := range got[5:] {
		if b != 0 {
			t.Fatalf("padding byte %d = %#x, want 0", 5+i, b)
		}
	}
}

func TestAppendPaddedOriginalTruncatesLongQuote(t *testing.T) {
	orig := make([]byte, origDatagramPadLen+40)
	for i := range orig {
		orig[i] = byte(i)
	}
	got := appendPaddedOriginal(nil, orig)
	if len(got) != origDatagramPadLen {
		t.Fatalf("padded length = %d, want %d", len(got), origDatagramPadLen)
	}
	if !bytes.Equal(got, orig[:origDatagramPadLen]) {
		t.Fatal("truncated quote differs from the original's prefix")
	}
}

// A recycled buffer full of garbage must not show through the zero padding.
func TestAppendPaddedOriginalOverwritesDirtyScratch(t *testing.T) {
	scratch := bytes.Repeat([]byte{0xa5}, origDatagramPadLen)
	got := appendPaddedOriginal(scratch[:0], []byte{9, 9})
	for i, b := range got[2:] {
		if b != 0 {
			t.Fatalf("stale byte %#x leaked at offset %d", b, 2+i)
		}
	}
}

func TestTrimOriginalIPv4(t *testing.T) {
	p := &IPv4{TTL: 5, Protocol: ProtoUDP, Src: addr("10.0.0.1"),
		Dst: addr("10.0.0.2"), Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	wire, err := p.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	padded := appendPaddedOriginal(nil, wire)
	got := trimOriginal(padded)
	if !bytes.Equal(got, wire) {
		t.Fatalf("trim = %d bytes, want the %d-byte quote back", len(got), len(wire))
	}
	// Zero-copy: the trimmed slice must alias the padded field.
	if &got[0] != &padded[0] {
		t.Fatal("trimOriginal must not copy")
	}
}

func TestQuotedLenKeepsUnparseableQuotes(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"short":             {0x45, 0},
		"bad version":       bytes.Repeat([]byte{0x75}, 40),
		"v4 total too big":  append([]byte{0x45, 0, 0xff, 0xff}, make([]byte, 36)...),
		"v4 total under 20": append([]byte{0x45, 0, 0, 4}, make([]byte, 36)...),
		// Neither the simulator nor a router quotes IPv6 inside ICMPv4.
		"v6 quote": append([]byte{0x60, 0, 0, 0, 0, 4}, make([]byte, 122)...),
	}
	for name, b := range cases {
		if got := quotedLen(b); got != len(b) {
			t.Errorf("%s: quotedLen = %d, want whole field %d", name, got, len(b))
		}
	}
}
