// Package pkt implements the wire formats the measurement pipeline needs:
// IPv4, UDP, and ICMPv4, including ICMP multipart extensions (RFC 4884)
// carrying the MPLS label stack object (RFC 4950). Probes leave the vantage
// point and replies come back as these bytes, so the codecs are exercised
// end to end by every simulated traceroute.
package pkt

import "encoding/binary"

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 {
	return finish(sum(b, 0))
}

// sum accumulates b into acc without folding, as big-endian 16-bit words
// (a trailing odd byte is the high octet of a zero-padded word). It adds
// 32-bit words into the 64-bit accumulator and defers every carry to
// finish (RFC 1071 §2): a 32-bit word hi·2^16+lo is congruent to hi+lo
// modulo 2^16−1, the modulus one's complement addition works in, and the
// accumulator cannot overflow before 2^32 words. Chained sums must split
// b at even offsets, so every word keeps its 16-bit alignment.
func sum(b []byte, acc uint64) uint64 {
	for len(b) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint64(b[0]) << 8
	}
	return acc
}

// finish folds the deferred carries of acc into 16 bits (end-around carry)
// and complements the result.
func finish(acc uint64) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}
