package pkt

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestIPv4RoundTrip(t *testing.T) {
	in := &IPv4{
		TOS:      0x10,
		ID:       0xbeef,
		DontFrag: true,
		TTL:      7,
		Protocol: ProtoUDP,
		Src:      addr("10.0.0.1"),
		Dst:      addr("192.0.2.33"),
		Payload:  []byte("hello world"),
	}
	b, err := in.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != IPv4HeaderLen+len(in.Payload) {
		t.Fatalf("len = %d", len(b))
	}
	var out IPv4
	if err := UnmarshalIPv4Into(&out, b); err != nil {
		t.Fatal(err)
	}
	if out.TOS != in.TOS || out.ID != in.ID || out.DontFrag != in.DontFrag ||
		out.TTL != in.TTL || out.Protocol != in.Protocol ||
		out.Src != in.Src || out.Dst != in.Dst || string(out.Payload) != string(in.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestIPv4ChecksumValidation(t *testing.T) {
	in := &IPv4{TTL: 64, Protocol: ProtoICMP, Src: addr("1.2.3.4"), Dst: addr("5.6.7.8")}
	b, _ := in.AppendMarshal(nil)
	b[8] ^= 0xff // corrupt TTL without fixing checksum
	var out IPv4
	if err := UnmarshalIPv4Into(&out, b); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupted header: err = %v, want ErrBadChecksum", err)
	}
}

func TestIPv4RejectsNonV4(t *testing.T) {
	in := &IPv4{TTL: 64, Src: addr("1.2.3.4"), Dst: addr("5.6.7.8")}
	b, _ := in.AppendMarshal(nil)
	b[0] = 6<<4 | 5
	var out IPv4
	if err := UnmarshalIPv4Into(&out, b); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
	if _, err := (&IPv4{Src: addr("::1"), Dst: addr("5.6.7.8")}).AppendMarshal(nil); err == nil {
		t.Error("AppendMarshal accepted IPv6 source")
	}
}

func TestIPv4Short(t *testing.T) {
	var out IPv4
	if err := UnmarshalIPv4Into(&out, make([]byte, 19)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("err = %v, want ErrShortPacket", err)
	}
}

func TestIPv4BadTotalLength(t *testing.T) {
	in := &IPv4{TTL: 1, Src: addr("1.2.3.4"), Dst: addr("5.6.7.8"), Payload: []byte{1, 2, 3}}
	b, _ := in.AppendMarshal(nil)
	var out IPv4
	// Claim a total length longer than the buffer, then one shorter than
	// the header.
	for _, total := range []uint16{0xffff, IPv4HeaderLen - 1} {
		b[2], b[3] = byte(total>>8), byte(total)
		if err := UnmarshalIPv4Into(&out, b); !errors.Is(err, ErrBadHeader) {
			t.Errorf("total length %d: err = %v, want ErrBadHeader", total, err)
		}
	}
}

func TestIPv4QuickRoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, df bool, ttl uint8, proto uint8, s, d [4]byte, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		in := &IPv4{TOS: tos, ID: id, DontFrag: df, TTL: ttl, Protocol: proto,
			Src: netip.AddrFrom4(s), Dst: netip.AddrFrom4(d), Payload: payload}
		b, err := in.AppendMarshal(nil)
		if err != nil {
			return false
		}
		var out IPv4
		if err := UnmarshalIPv4Into(&out, b); err != nil {
			return false
		}
		if out.TTL != ttl || out.Src != in.Src || out.Dst != in.Dst || len(out.Payload) != len(payload) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2 -> checksum 220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd length pads with a zero byte.
	if got := Checksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Errorf("odd-length checksum = %#04x", got)
	}
}

func TestUnmarshalIPv4QuotedTruncated(t *testing.T) {
	// RFC 792 minimum quote: IP header + 8 payload bytes, with a declared
	// total length larger than what is present.
	full := &IPv4{TTL: 5, ID: 321, Protocol: ProtoUDP,
		Src: addr("10.0.0.1"), Dst: addr("192.0.2.2"),
		Payload: make([]byte, 100)}
	b, _ := full.AppendMarshal(nil)
	quote := b[:IPv4HeaderLen+8]
	// Strict parser refuses it...
	var q IPv4
	if err := UnmarshalIPv4Into(&q, quote); err == nil {
		t.Error("strict parser accepted truncated datagram")
	}
	// ...the quoted parser accepts it and keeps the header fields.
	if err := UnmarshalIPv4QuotedInto(&q, quote); err != nil {
		t.Fatal(err)
	}
	if q.ID != 321 || q.Src != full.Src || q.Dst != full.Dst || len(q.Payload) != 8 {
		t.Errorf("quoted parse = %+v", q)
	}
	// A quote whose total length undercuts its header keeps every byte
	// too; the header checks are the strict parser's.
	short := append([]byte(nil), quote...)
	short[2], short[3] = 0, IPv4HeaderLen-1
	short[10], short[11] = 0, 0
	ck := Checksum(short[:IPv4HeaderLen])
	short[10], short[11] = byte(ck>>8), byte(ck)
	if err := UnmarshalIPv4QuotedInto(&q, short); err != nil || len(q.Payload) != 8 {
		t.Errorf("quote with total length %d: payload %d bytes, err %v; want 8, nil", IPv4HeaderLen-1, len(q.Payload), err)
	}
	if err := UnmarshalIPv4QuotedInto(&q, quote[:IPv4HeaderLen-1]); !errors.Is(err, ErrShortPacket) {
		t.Errorf("quote shorter than a header: err = %v, want ErrShortPacket", err)
	}
	// But a corrupted header is still rejected.
	quote[8] ^= 0xff
	if err := UnmarshalIPv4QuotedInto(&q, quote); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupted quote: err = %v, want ErrBadChecksum", err)
	}
}
