package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// UDPHeaderLen is the fixed UDP header length.
const UDPHeaderLen = 8

// UDP is a UDP datagram. Its checksum covers the IPv4 pseudo-header, so
// AppendMarshal takes the enclosing addresses.
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// AppendMarshal serializes the datagram onto dst with a checksum over the
// pseudo-header (src, dst, protocol, UDP length) and returns the extended
// slice, allocating only when dst lacks capacity.
func (u *UDP) AppendMarshal(dst []byte, src, dstAddr netip.Addr) ([]byte, error) {
	total := UDPHeaderLen + len(u.Payload)
	if total > 0xffff {
		return nil, fmt.Errorf("%w: UDP payload too large", ErrBadHeader)
	}
	b, o := grow(dst, total)
	binary.BigEndian.PutUint16(b[o:], u.SrcPort)
	binary.BigEndian.PutUint16(b[o+2:], u.DstPort)
	binary.BigEndian.PutUint16(b[o+4:], uint16(total))
	b[o+6] = 0
	b[o+7] = 0
	copy(b[o+UDPHeaderLen:], u.Payload)
	ck := udpChecksum(src, dstAddr, b[o:])
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted as all-ones when computed zero
	}
	binary.BigEndian.PutUint16(b[o+6:], ck)
	return b, nil
}

// udpChecksum folds the pseudo-header and the datagram bytes. When called
// on a datagram whose checksum field is already set, a correct datagram
// folds to zero.
func udpChecksum(src, dst netip.Addr, datagram []byte) uint16 {
	var pseudo [12]byte
	s, d := src.As4(), dst.As4()
	copy(pseudo[0:4], s[:])
	copy(pseudo[4:8], d[:])
	pseudo[9] = ProtoUDP
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(datagram)))
	return finish(sum(datagram, sum(pseudo[:], 0)))
}

// String summarizes the datagram for debugging.
func (u *UDP) String() string {
	return fmt.Sprintf("UDP %d -> %d len=%d", u.SrcPort, u.DstPort, UDPHeaderLen+len(u.Payload))
}
