package mpls

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLSEMarshalRoundTrip(t *testing.T) {
	cases := []LSE{
		{Label: 0, TC: 0, S: false, TTL: 0},
		{Label: 16005, TC: 0, S: true, TTL: 1},
		{Label: MaxLabel, TC: 7, S: true, TTL: 255},
		{Label: 3, TC: 5, S: false, TTL: 64},
		{Label: 900000, TC: 1, S: false, TTL: 254},
	}
	for _, in := range cases {
		b, err := in.AppendMarshal(nil)
		if err != nil {
			t.Fatalf("AppendMarshal(%v): %v", in, err)
		}
		if len(b) != LSESize {
			t.Fatalf("AppendMarshal(%v) = %d bytes, want %d", in, len(b), LSESize)
		}
		out, err := UnmarshalLSE(b)
		if err != nil {
			t.Fatalf("UnmarshalLSE: %v", err)
		}
		if out != in {
			t.Errorf("round trip: got %v, want %v", out, in)
		}
	}
}

func TestLSEWireLayout(t *testing.T) {
	// Label 16005, TC 2, S=1, TTL 250:
	// 16005<<12 | 2<<9 | 1<<8 | 250
	e := LSE{Label: 16005, TC: 2, S: true, TTL: 250}
	b, err := e.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(16005)<<12 | 2<<9 | 1<<8 | 250
	if got := binary.BigEndian.Uint32(b); got != want {
		t.Errorf("wire value = %#08x, want %#08x", got, want)
	}
}

func TestLSEMarshalRejectsOverflow(t *testing.T) {
	if _, err := (LSE{Label: MaxLabel + 1}).AppendMarshal(nil); !errors.Is(err, ErrLabelRange) {
		t.Errorf("overflowing label: err = %v, want ErrLabelRange", err)
	}
	if _, err := (LSE{Label: 5, TC: 8}).AppendMarshal(nil); !errors.Is(err, ErrLabelRange) {
		t.Errorf("overflowing TC: err = %v, want ErrLabelRange", err)
	}
}

func TestUnmarshalLSETruncated(t *testing.T) {
	for n := 0; n < LSESize; n++ {
		if _, err := UnmarshalLSE(make([]byte, n)); !errors.Is(err, ErrTruncated) {
			t.Errorf("UnmarshalLSE(%d bytes): err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestLSEReserved(t *testing.T) {
	for _, l := range []uint32{0, 1, 3, 13, 15} {
		if !(LSE{Label: l}).Reserved() {
			t.Errorf("label %d should be reserved", l)
		}
	}
	for _, l := range []uint32{16, 255, 16000, MaxLabel} {
		if (LSE{Label: l}).Reserved() {
			t.Errorf("label %d should not be reserved", l)
		}
	}
}

func TestLSEQuickRoundTrip(t *testing.T) {
	f := func(label uint32, tc uint8, s bool, ttl uint8) bool {
		in := LSE{Label: label % (MaxLabel + 1), TC: tc % 8, S: s, TTL: ttl}
		b, err := in.AppendMarshal(nil)
		if err != nil {
			return false
		}
		out, err := UnmarshalLSE(b)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStackMarshalSetsBottomBitOnlyOnLast(t *testing.T) {
	s := Stack{
		{Label: 16005, TTL: 254, S: true}, // wrong S on purpose; AppendMarshal must fix
		{Label: 3001, TTL: 254},
		{Label: 16008, TTL: 254},
	}
	b, err := s.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, n, err := AppendUnmarshalStack(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Errorf("consumed %d bytes, want %d", n, len(b))
	}
	if out.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", out.Depth())
	}
	for i, e := range out {
		wantS := i == 2
		if e.S != wantS {
			t.Errorf("entry %d S = %v, want %v", i, e.S, wantS)
		}
	}
	if out[0].Label != 16005 || out[1].Label != 3001 || out[2].Label != 16008 {
		t.Errorf("labels = %v", out)
	}
}

func TestStackMarshalEmpty(t *testing.T) {
	b, err := Stack(nil).AppendMarshal(nil)
	if err != nil || b != nil {
		t.Errorf("empty stack: b=%v err=%v", b, err)
	}
}

func TestUnmarshalStackStopsAtBottom(t *testing.T) {
	s := Stack{{Label: 100}, {Label: 200}}
	b, _ := s.AppendMarshal(nil)
	// Append garbage after the bottom entry; decoding must not consume it.
	b = append(b, 0xde, 0xad, 0xbe, 0xef)
	out, n, err := AppendUnmarshalStack(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*LSESize {
		t.Errorf("consumed %d, want %d", n, 2*LSESize)
	}
	if out.Depth() != 2 {
		t.Errorf("depth = %d, want 2", out.Depth())
	}
}

func TestUnmarshalStackRunaway(t *testing.T) {
	// A stack that never sets the bottom bit must error out, not loop.
	b := make([]byte, (MaxStackDepth+2)*LSESize)
	if _, _, err := AppendUnmarshalStack(nil, b); err == nil {
		t.Error("runaway stack decoded without error")
	}
}

func TestUnmarshalStackTruncatedMidEntry(t *testing.T) {
	s := Stack{{Label: 100}, {Label: 200}}
	b, _ := s.AppendMarshal(nil)
	if _, _, err := AppendUnmarshalStack(nil, b[:LSESize+2]); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestStackQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		depth := 1 + rng.Intn(6)
		in := make(Stack, depth)
		for j := range in {
			in[j] = LSE{
				Label: uint32(rng.Intn(MaxLabel + 1)),
				TC:    uint8(rng.Intn(8)),
				TTL:   uint8(rng.Intn(256)),
			}
		}
		b, err := in.AppendMarshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := AppendUnmarshalStack(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if out.Depth() != depth {
			t.Fatalf("depth: got %d want %d", out.Depth(), depth)
		}
		for j := range in {
			if out[j].Label != in[j].Label || out[j].TC != in[j].TC || out[j].TTL != in[j].TTL {
				t.Fatalf("entry %d: got %v want %v", j, out[j], in[j])
			}
		}
	}
}

func TestStackString(t *testing.T) {
	if got := (Stack{}).String(); got != "[]" {
		t.Errorf("empty stack String = %q", got)
	}
	s := Stack{{Label: 16005, TTL: 254, S: true}}
	if got := s.String(); got != "[L=16005,TC=0,S=1,TTL=254]" {
		t.Errorf("String = %q", got)
	}
}
