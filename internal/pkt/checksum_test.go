package pkt

import (
	"bytes"
	"testing"
)

// referenceChecksum is a transliteration of RFC 1071 §4.1's C reference,
// kept deliberately naive as an oracle for the production implementation.
func referenceChecksum(b []byte) uint16 {
	var acc uint32
	for i := 0; i+1 < len(b); i += 2 {
		acc += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		acc += uint32(b[len(b)-1]) << 8
	}
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

func TestChecksumZeroLength(t *testing.T) {
	if got := Checksum(nil); got != 0xffff {
		t.Fatalf("Checksum(nil) = %#x, want 0xffff", got)
	}
	if got := Checksum([]byte{}); got != 0xffff {
		t.Fatalf("Checksum(empty) = %#x, want 0xffff", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// The trailing byte acts as the high octet of a zero-padded word.
	cases := [][]byte{
		{0x01},
		{0x00},
		{0xff},
		{0x12, 0x34, 0x56},
		{0xde, 0xad, 0xbe, 0xef, 0x7f},
	}
	for _, b := range cases {
		if got, want := Checksum(b), referenceChecksum(b); got != want {
			t.Errorf("Checksum(%x) = %#x, want %#x", b, got, want)
		}
	}
	// Explicitly: an odd buffer equals its even zero-padded form.
	odd := []byte{0x12, 0x34, 0x56}
	even := []byte{0x12, 0x34, 0x56, 0x00}
	if Checksum(odd) != Checksum(even) {
		t.Fatal("odd-length buffer must checksum like its zero-padded form")
	}
}

// All-0xFF words drive the 32-bit accumulator through repeated carry
// wraps; the end-around-carry fold must converge, not stop after one pass.
func TestChecksumCarryChainFolding(t *testing.T) {
	b := bytes.Repeat([]byte{0xff}, 64*1024)
	if got, want := Checksum(b), referenceChecksum(b); got != want {
		t.Fatalf("64KiB of 0xff: Checksum = %#x, want %#x", got, want)
	}
	// sum of n 0xffff words ≡ n-1 words of carry behaviour:
	// 0xffff + 0xffff = 0x1fffe → fold → 0xffff, so any run of 0xff
	// bytes checksums to 0 (complement of 0xffff).
	if got := Checksum(b); got != 0 {
		t.Fatalf("all-ones buffer = %#x, want 0", got)
	}
}

func TestChecksumAgainstReferenceSweep(t *testing.T) {
	// Deterministic pseudo-random contents across lengths 0..257 hit every
	// alignment and several fold patterns.
	b := make([]byte, 258)
	x := uint32(0x12345678)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	for n := 0; n <= len(b); n++ {
		if got, want := Checksum(b[:n]), referenceChecksum(b[:n]); got != want {
			t.Fatalf("len %d: Checksum = %#x, want %#x", n, got, want)
		}
	}
}

// RFC 1071 property: the checksum of data with its own checksum word
// included verifies to zero (how receivers validate headers in place).
func TestChecksumSelfVerifies(t *testing.T) {
	b := []byte{0x45, 0x00, 0x00, 0x1c, 0xbe, 0xef, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02}
	ck := Checksum(b)
	b[10], b[11] = byte(ck>>8), byte(ck)
	if got := Checksum(b); got != 0 {
		t.Fatalf("self-verification = %#x, want 0", got)
	}
}

// FuzzChecksum checks the word-wise accumulator against the byte-pair
// reference for any bytes, whole and chained across an even split (the
// pseudo-header chaining of udpChecksum).
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xff}, uint16(1))
	f.Add([]byte{0x12, 0x34, 0x56}, uint16(2))
	f.Add([]byte{0x45, 0x00, 0x00, 0x1c, 0xbe, 0xef, 0x40, 0x00, 0x40, 0x11}, uint16(6))
	f.Add(bytes.Repeat([]byte{0xff}, 1031), uint16(514))
	f.Fuzz(func(t *testing.T, b []byte, split uint16) {
		want := referenceChecksum(b)
		if got := Checksum(b); got != want {
			t.Fatalf("Checksum(%x) = %#x, want %#x", b, got, want)
		}
		k := int(split) % (len(b) + 1) &^ 1
		if got := finish(sum(b[k:], sum(b[:k], 0))); got != want {
			t.Fatalf("split at %d of %x: %#x, want %#x", k, b, got, want)
		}
	})
}

func BenchmarkChecksum(b *testing.B) {
	for _, size := range []int{20, 128, 1500} {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		b.Run(sizeLabel(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkU16 = Checksum(buf)
			}
		})
	}
}

var sinkU16 uint16

func sizeLabel(n int) string {
	switch n {
	case 20:
		return "ipv4hdr"
	case 128:
		return "quote"
	default:
		return "mtu"
	}
}
