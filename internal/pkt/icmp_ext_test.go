package pkt

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"arest/internal/mpls"
)

// marshalWithExt builds a time-exceeded message carrying the given
// extension objects (RFC 4884 form: quote padded to 128 bytes).
func marshalWithExt(t *testing.T, objs []ExtensionObject) []byte {
	t.Helper()
	return marshalICMP(t, &ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded,
		Body: buildQuote(t), Extensions: objs})
}

// reseal recomputes the ICMP message checksum after a mutation.
func reseal(b []byte) {
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[2:], Checksum(b))
}

// TestICMPLengthFieldDisagreesWithPadding drives the RFC 4884 length
// attribute through its edge cases: word counts that disagree with the
// actual padded-datagram layout must be rejected, not silently misparsed as
// extension bytes (or vice versa).
func TestICMPLengthFieldDisagreesWithPadding(t *testing.T) {
	cases := []struct {
		name  string
		words uint8 // value written into the length field
		ok    bool
	}{
		// RFC 4884 Sec. 5.1: when the length attribute is used, the
		// original datagram field must be zero-padded to at least 128
		// bytes, i.e. 32 words.
		{"below minimum (1 word)", 1, false},
		{"below minimum (31 words)", 31, false},
		{"exact minimum (32 words)", 32, true},
		// Claims more original-datagram bytes than the message carries:
		// the extension structure would start beyond the buffer.
		{"beyond message (60 words)", 60, false},
	}
	obj := mplsObject(t, mpls.Stack{{Label: 16005, TTL: 253}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := marshalWithExt(t, []ExtensionObject{obj})
			b[5] = tc.words
			reseal(b)
			var out ICMP
			err := UnmarshalICMPInto(&out, b)
			if tc.ok {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if _, found := out.AppendMPLSStack(nil); !found {
					t.Error("MPLS stack lost")
				}
				return
			}
			if !errors.Is(err, ErrBadExtension) {
				t.Fatalf("err = %v, want ErrBadExtension", err)
			}
		})
	}
}

// TestICMPZeroChecksumExtension pins the RFC 4884 Sec. 7 compatibility
// rule: an all-zero extension checksum means "not computed" and the
// structure must be accepted without verification.
func TestICMPZeroChecksumExtension(t *testing.T) {
	obj := mplsObject(t, mpls.Stack{{Label: 24001, TTL: 254}})
	b := marshalWithExt(t, []ExtensionObject{obj})
	extOff := icmpHeaderLen + origDatagramPadLen
	b[extOff+2], b[extOff+3] = 0, 0 // zero the extension checksum
	reseal(b)
	var out ICMP
	if err := UnmarshalICMPInto(&out, b); err != nil {
		t.Fatalf("zero-checksum extension rejected: %v", err)
	}
	s, ok := out.AppendMPLSStack(nil)
	if !ok || s[0].Label != 24001 {
		t.Fatalf("stack = %v, ok = %v", s, ok)
	}

	// A non-zero but wrong checksum stays an error.
	b[extOff+2] = 0xAA
	reseal(b)
	if err := UnmarshalICMPInto(&out, b); !errors.Is(err, ErrBadExtension) {
		t.Fatalf("corrupt extension checksum: err = %v, want ErrBadExtension", err)
	}
}

// TestICMPMPLSObjectNotFirst walks a multi-object extension structure where
// the RFC 4950 label stack is not the leading object: routers may emit
// interface-information objects (RFC 5837) ahead of it.
func TestICMPMPLSObjectNotFirst(t *testing.T) {
	stack := mpls.Stack{{Label: 16010, TTL: 252}, {Label: 100, TTL: 252}}
	objs := []ExtensionObject{
		{Class: 2, CType: 1, Payload: []byte{0xde, 0xad, 0xbe, 0xef}}, // RFC 5837-style
		{Class: 2, CType: 3, Payload: []byte("eth0")},
		mplsObject(t, stack),
	}
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalWithExt(t, objs)); err != nil {
		t.Fatal(err)
	}
	if len(out.Extensions) != 3 {
		t.Fatalf("extensions = %d, want 3", len(out.Extensions))
	}
	got, ok := out.AppendMPLSStack(nil)
	if !ok {
		t.Fatal("MPLS stack not found behind leading objects")
	}
	if got.Depth() != 2 || got[0].Label != 16010 || got[1].Label != 100 {
		t.Errorf("stack = %v", got)
	}
}

// TestAppendMPLSStack pins the appending decoder the prober uses: the
// quoted entries land after dst's, and an undecodable stack (no bottom
// flag before the object ends) leaves dst as it was.
func TestAppendMPLSStack(t *testing.T) {
	stack := mpls.Stack{{Label: 16010, TTL: 252}, {Label: 100, TTL: 252, S: true}}
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalWithExt(t, []ExtensionObject{mplsObject(t, stack)})); err != nil {
		t.Fatal(err)
	}
	prefix := mpls.Stack{{Label: 24001, TTL: 9, S: true}}
	got, ok := out.AppendMPLSStack(prefix[:1:1])
	if !ok || !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], stack) {
		t.Fatalf("AppendMPLSStack = %v, %v; want %v then %v", got, ok, prefix, stack)
	}

	bad := ExtensionObject{Class: ClassMPLSLabelStack, CType: CTypeIncomingStack,
		Payload: []byte{0x01, 0x00, 0x00, 0xff}} // S bit clear, then nothing
	if err := UnmarshalICMPInto(&out, marshalWithExt(t, []ExtensionObject{bad})); err != nil {
		t.Fatal(err)
	}
	if got, ok := out.AppendMPLSStack(prefix); ok || !slices.Equal(got, prefix) {
		t.Fatalf("undecodable stack: got %v, %v; want %v, false", got, ok, prefix)
	}
	if got, ok := out.AppendMPLSStack(nil); ok || got != nil {
		t.Fatalf("undecodable stack onto nil: got %v, %v; want nil, false", got, ok)
	}
}

// TestICMPObjectLengthExactlyHeader exercises the smallest legal object: a
// length field of exactly objectHeaderLen (4), i.e. an empty payload. It
// must parse as a zero-byte object, and one byte less must be rejected.
func TestICMPObjectLengthExactlyHeader(t *testing.T) {
	empty := ExtensionObject{Class: 9, CType: 9}
	var out ICMP
	if err := UnmarshalICMPInto(&out, marshalWithExt(t, []ExtensionObject{empty})); err != nil {
		t.Fatal(err)
	}
	if len(out.Extensions) != 1 {
		t.Fatalf("extensions = %d, want 1", len(out.Extensions))
	}
	o := out.Extensions[0]
	if o.Class != 9 || o.CType != 9 || len(o.Payload) != 0 {
		t.Errorf("object = %+v", o)
	}
	if _, ok := out.AppendMPLSStack(nil); ok {
		t.Error("empty object misread as MPLS stack")
	}

	// Object length below the header length is structurally impossible.
	b := marshalWithExt(t, []ExtensionObject{empty})
	extOff := icmpHeaderLen + origDatagramPadLen
	objOff := extOff + extHeaderLen
	binary.BigEndian.PutUint16(b[objOff:], objectHeaderLen-1)
	// Re-seal both checksums: extension first, then message.
	b[extOff+2], b[extOff+3] = 0, 0
	binary.BigEndian.PutUint16(b[extOff+2:], Checksum(b[extOff:]))
	reseal(b)
	if err := UnmarshalICMPInto(&out, b); !errors.Is(err, ErrBadExtension) {
		t.Fatalf("undersized object: err = %v, want ErrBadExtension", err)
	}
}

// FuzzUnmarshalICMP fuzzes the strict parser with seeds covering every
// structural branch: echo, plain errors, RFC 4884+4950 extensions, the
// zero-checksum compatibility form, and known-malformed inputs. The parser
// must never panic and must round-trip whatever it accepts.
func FuzzUnmarshalICMP(f *testing.F) {
	quote := buildQuote(f)
	seed := func(m *ICMP) { f.Add(marshalICMP(f, m)) }
	seed(&ICMP{Type: ICMPEchoRequest, ID: 1, Seq: 2, Body: []byte("ping")})
	seed(&ICMP{Type: ICMPEchoReply, ID: 1, Seq: 2})
	seed(&ICMP{Type: ICMPTimeExceeded, Code: CodeTTLExceeded, Body: quote})
	seed(&ICMP{Type: ICMPDestUnreachable, Code: CodePortUnreachable, Body: quote})
	mplsObj := mplsObject(f, mpls.Stack{{Label: 16005, TTL: 253}, {Label: 99, TTL: 253}})
	seed(&ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{mplsObj}})
	seed(&ICMP{Type: ICMPTimeExceeded, Body: quote, Extensions: []ExtensionObject{
		{Class: 2, CType: 1, Payload: []byte{1, 2, 3, 4}}, mplsObj, {Class: 9, CType: 9}}})
	// Zero-checksum extension structure.
	withExt := marshalICMP(f, &ICMP{Type: ICMPTimeExceeded, Body: quote,
		Extensions: []ExtensionObject{mplsObj}})
	zc := append([]byte(nil), withExt...)
	extOff := icmpHeaderLen + origDatagramPadLen
	zc[extOff+2], zc[extOff+3] = 0, 0
	reseal(zc)
	f.Add(zc)
	// Malformed seeds: short, bad checksum, bad length field, bad version.
	f.Add([]byte{})
	f.Add([]byte{11, 0, 0, 0})
	f.Add([]byte{11, 0, 0xFF, 0xFF, 0, 0, 0, 0})
	badLen := append([]byte(nil), withExt...)
	badLen[5] = 1
	reseal(badLen)
	f.Add(badLen)
	badVer := append([]byte(nil), withExt...)
	badVer[extOff] = 0x10
	reseal(badVer)
	f.Add(badVer)

	f.Fuzz(func(t *testing.T, b []byte) {
		var m, m2 ICMP
		if err := UnmarshalICMPInto(&m, b); err != nil {
			return
		}
		// Accepted messages must re-marshal (byte equality does not hold in
		// general: unpadded quotes re-pad differently), and the re-marshaled
		// form must parse again with identical structure.
		b2, err := m.AppendMarshal(nil)
		if err != nil {
			t.Fatalf("accepted message does not re-marshal: %v (%s)", err, &m)
		}
		if err := UnmarshalICMPInto(&m2, b2); err != nil {
			t.Fatalf("re-marshaled message rejected: %v (%s)", err, &m)
		}
		if m.Type != m2.Type || m.Code != m2.Code || len(m.Extensions) != len(m2.Extensions) {
			t.Fatalf("round trip drifted: %s vs %s", &m, &m2)
		}
	})
}
