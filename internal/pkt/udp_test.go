package pkt

import (
	"encoding/binary"
	"errors"
	"testing"
)

// The UDP codec is an encoder only: the prober builds datagrams, and the
// simulator and the prober read a probe's ports straight from its bytes.
// These tests read the encoded fields back and fold the checksum over the
// pseudo-header and the datagram, which a correct datagram folds to zero.

func TestUDPRoundTrip(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("192.0.2.9")
	in := &UDP{SrcPort: 33434, DstPort: 33435, Payload: []byte("probe")}
	b, err := in.AppendMarshal(nil, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint16(b[0:]) != in.SrcPort || binary.BigEndian.Uint16(b[2:]) != in.DstPort ||
		int(binary.BigEndian.Uint16(b[4:])) != len(b) || string(b[UDPHeaderLen:]) != "probe" {
		t.Errorf("encoded datagram %x", b)
	}
	if ck := udpChecksum(src, dst, b); ck != 0 {
		t.Errorf("checksum folds to %#04x over the pseudo-header, want 0", ck)
	}
	// RFC 768's sum over the pseudo-header 0a000001 c0000209 0011 000d
	// and the datagram 829a 829b 000d 0000 "probe", computed apart from
	// the encoder.
	if got := binary.BigEndian.Uint16(b[6:]); got != 0xe9be {
		t.Errorf("checksum %#04x, want 0xe9be", got)
	}
}

func TestUDPChecksumCoversPseudoHeader(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("192.0.2.9")
	in := &UDP{SrcPort: 1000, DstPort: 2000, Payload: []byte("xyz")}
	b, _ := in.AppendMarshal(nil, src, dst)
	// Same bytes checked against different addresses must fail: Paris
	// traceroute relies on the checksum binding the 5-tuple.
	if udpChecksum(src, addr("192.0.2.10"), b) == 0 {
		t.Error("checksum verifies under the wrong pseudo-header")
	}
}

func TestUDPCorruptedPayload(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("192.0.2.9")
	in := &UDP{SrcPort: 1, DstPort: 2, Payload: []byte{1, 2, 3, 4}}
	b, _ := in.AppendMarshal(nil, src, dst)
	b[len(b)-1] ^= 0x55
	if udpChecksum(src, dst, b) == 0 {
		t.Error("checksum verifies over a corrupted payload")
	}
}

func TestUDPShortAndBadLength(t *testing.T) {
	src, dst := addr("10.0.0.1"), addr("192.0.2.9")
	// The shortest datagram is its header alone.
	b, err := (&UDP{SrcPort: 1, DstPort: 2}).AppendMarshal(nil, src, dst)
	if err != nil || len(b) != UDPHeaderLen || binary.BigEndian.Uint16(b[4:]) != UDPHeaderLen {
		t.Errorf("empty datagram %x, err %v; want the %d-byte header", b, err, UDPHeaderLen)
	}
	// A payload the 16-bit length field cannot state is refused.
	big := &UDP{SrcPort: 1, DstPort: 2, Payload: make([]byte, 0x10000-UDPHeaderLen)}
	if _, err := big.AppendMarshal(nil, src, dst); !errors.Is(err, ErrBadHeader) {
		t.Errorf("oversized payload: err = %v, want ErrBadHeader", err)
	}
}

func TestUDPInsideIPv4(t *testing.T) {
	src, dst := addr("172.16.0.1"), addr("203.0.113.7")
	u := &UDP{SrcPort: 33434, DstPort: 33500, Payload: []byte("tnt-probe-0001")}
	ub, err := u.AppendMarshal(nil, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	ip := &IPv4{TTL: 1, Protocol: ProtoUDP, Src: src, Dst: dst, Payload: ub}
	b, err := ip.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4
	if err := UnmarshalIPv4Into(&got, b); err != nil {
		t.Fatal(err)
	}
	d := got.Payload
	if binary.BigEndian.Uint16(d[2:]) != 33500 || string(d[UDPHeaderLen:]) != "tnt-probe-0001" {
		t.Errorf("nested datagram %x", d)
	}
	if udpChecksum(got.Src, got.Dst, d) != 0 {
		t.Error("nested datagram fails its checksum under the decoded addresses")
	}
}
