package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers used by the prober and simulator.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// Errors returned by the IPv4 codec.
var (
	ErrShortPacket = errors.New("pkt: packet too short")
	ErrBadVersion  = errors.New("pkt: not an IPv4 packet")
	ErrBadChecksum = errors.New("pkt: bad checksum")
	ErrBadHeader   = errors.New("pkt: malformed header")
)

// IPv4 is an IPv4 packet: header fields plus payload. Options are not
// modeled (no measurement tool in this pipeline emits them).
type IPv4 struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	TTL      uint8
	Protocol uint8
	Src, Dst netip.Addr
	Payload  []byte
}

// Marshal serializes the packet, computing TotalLength and the header
// checksum.
func (p *IPv4) Marshal() ([]byte, error) {
	return p.AppendMarshal(nil)
}

// AppendMarshal serializes the packet onto dst and returns the extended
// slice, allocating only when dst lacks capacity. The appended bytes are
// identical to Marshal's output; every byte of the appended region is
// written, so dst may be a recycled scratch buffer.
func (p *IPv4) AppendMarshal(dst []byte) ([]byte, error) {
	if !p.Src.Is4() || !p.Dst.Is4() {
		return nil, fmt.Errorf("%w: src/dst must be IPv4 addresses", ErrBadHeader)
	}
	total := IPv4HeaderLen + len(p.Payload)
	if total > 0xffff {
		return nil, fmt.Errorf("%w: payload too large (%d bytes)", ErrBadHeader, len(p.Payload))
	}
	b, o := grow(dst, total)
	b[o] = 4<<4 | IPv4HeaderLen/4
	b[o+1] = p.TOS
	binary.BigEndian.PutUint16(b[o+2:], uint16(total))
	binary.BigEndian.PutUint16(b[o+4:], p.ID)
	b[o+6] = 0
	if p.DontFrag {
		b[o+6] = 1 << 6
	}
	b[o+7] = 0
	b[o+8] = p.TTL
	b[o+9] = p.Protocol
	b[o+10] = 0
	b[o+11] = 0
	src := p.Src.As4()
	dst4 := p.Dst.As4()
	copy(b[o+12:o+16], src[:])
	copy(b[o+16:o+20], dst4[:])
	binary.BigEndian.PutUint16(b[o+10:], Checksum(b[o:o+IPv4HeaderLen]))
	copy(b[o+IPv4HeaderLen:], p.Payload)
	return b, nil
}

// UnmarshalIPv4 parses an IPv4 packet, verifying version, lengths, and the
// header checksum. The returned packet owns its payload.
func UnmarshalIPv4(b []byte) (*IPv4, error) {
	p := new(IPv4)
	if err := UnmarshalIPv4Into(p, b); err != nil {
		return nil, err
	}
	p.Payload = append([]byte(nil), p.Payload...)
	return p, nil
}

// UnmarshalIPv4Into parses an IPv4 packet into p without allocating:
// p.Payload aliases b, so b must stay live and unmodified for as long as p
// is in use. Verification matches UnmarshalIPv4.
func UnmarshalIPv4Into(p *IPv4, b []byte) error {
	if len(b) < IPv4HeaderLen {
		return ErrShortPacket
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return fmt.Errorf("%w: IHL=%d", ErrBadHeader, ihl)
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < ihl || total > len(b) {
		return fmt.Errorf("%w: total length %d of %d bytes", ErrBadHeader, total, len(b))
	}
	if Checksum(b[:ihl]) != 0 {
		return ErrBadChecksum
	}
	*p = IPv4{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:]),
		DontFrag: b[6]&(1<<6) != 0,
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
		Payload:  b[ihl:total],
	}
	return nil
}

// UnmarshalIPv4Quoted parses a quoted original datagram from an ICMP error
// body. Unlike UnmarshalIPv4 it tolerates truncation: many routers quote
// only the IP header plus 8 payload bytes (RFC 792 minimum), so the
// declared total length may exceed the bytes present. The checksum still
// has to verify — the header itself is never truncated.
func UnmarshalIPv4Quoted(b []byte) (*IPv4, error) {
	p := new(IPv4)
	if err := UnmarshalIPv4QuotedInto(p, b); err != nil {
		return nil, err
	}
	p.Payload = append([]byte(nil), p.Payload...)
	return p, nil
}

// UnmarshalIPv4QuotedInto is the allocation-free form of
// UnmarshalIPv4Quoted: p.Payload aliases b.
func UnmarshalIPv4QuotedInto(p *IPv4, b []byte) error {
	if len(b) < IPv4HeaderLen {
		return ErrShortPacket
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return fmt.Errorf("%w: IHL=%d", ErrBadHeader, ihl)
	}
	if Checksum(b[:ihl]) != 0 {
		return ErrBadChecksum
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	end := total
	if end > len(b) || end < ihl {
		end = len(b) // truncated quote: keep what we have
	}
	*p = IPv4{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:]),
		DontFrag: b[6]&(1<<6) != 0,
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
		Payload:  b[ihl:end],
	}
	return nil
}

// String summarizes the packet for debugging.
func (p *IPv4) String() string {
	return fmt.Sprintf("IPv4 %s -> %s proto=%d ttl=%d len=%d",
		p.Src, p.Dst, p.Protocol, p.TTL, IPv4HeaderLen+len(p.Payload))
}
