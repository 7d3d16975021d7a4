package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"arest/internal/mpls"
)

// ICMP types and codes used by the pipeline.
const (
	ICMPEchoReply       = 0
	ICMPDestUnreachable = 3
	ICMPEchoRequest     = 8
	ICMPTimeExceeded    = 11

	CodePortUnreachable = 3 // under ICMPDestUnreachable
	CodeTTLExceeded     = 0 // under ICMPTimeExceeded
)

// RFC 4884 / RFC 4950 constants.
const (
	icmpHeaderLen       = 8
	ExtensionVersion    = 2   // RFC 4884 Sec. 8
	origDatagramPadLen  = 128 // original datagram field length when extensions are present
	extHeaderLen        = 4
	objectHeaderLen     = 4
	ClassMPLSLabelStack = 1 // RFC 4950
	CTypeIncomingStack  = 1 // RFC 4950
)

// ErrBadExtension reports a malformed ICMP extension structure.
var ErrBadExtension = errors.New("pkt: malformed ICMP extension")

// ExtensionObject is one RFC 4884 extension object.
type ExtensionObject struct {
	Class   uint8
	CType   uint8
	Payload []byte
}

// ICMP is an ICMPv4 message. For error messages (time exceeded, destination
// unreachable) Body holds the quoted original datagram (unpadded) and
// Extensions holds any RFC 4884 objects — notably the RFC 4950 MPLS label
// stack quoted by compliant LSRs. For echo messages Body holds the data.
type ICMP struct {
	Type       uint8
	Code       uint8
	ID         uint16 // echo only
	Seq        uint16 // echo only
	Body       []byte
	Extensions []ExtensionObject
}

// IsError reports whether the message quotes an original datagram.
func (m *ICMP) IsError() bool {
	return m.Type == ICMPTimeExceeded || m.Type == ICMPDestUnreachable
}

// Marshal serializes the message. Error messages with extension objects are
// emitted in RFC 4884 form: the original datagram padded to 128 bytes, the
// length field set, and a checksummed extension structure appended.
func (m *ICMP) Marshal() ([]byte, error) {
	return m.AppendMarshal(nil)
}

// AppendMarshal serializes the message onto dst and returns the extended
// slice, allocating only when dst lacks capacity. The appended bytes are
// identical to Marshal's output; every byte of the appended region is
// written, so dst may be a recycled scratch buffer.
func (m *ICMP) AppendMarshal(dst []byte) ([]byte, error) {
	off := len(dst)
	var b []byte
	switch {
	case m.Type == ICMPEchoRequest || m.Type == ICMPEchoReply:
		var o int
		b, o = grow(dst, icmpHeaderLen+len(m.Body))
		binary.BigEndian.PutUint16(b[o+4:], m.ID)
		binary.BigEndian.PutUint16(b[o+6:], m.Seq)
		copy(b[o+icmpHeaderLen:], m.Body)
	case m.IsError():
		if len(m.Extensions) > 0 {
			var o int
			b, o = grow(dst, icmpHeaderLen)
			b[o+4] = 0
			b[o+5] = origDatagramPadLen / 4 // RFC 4884 length field, 32-bit words
			b[o+6], b[o+7] = 0, 0
			b = appendPaddedOriginal(b, m.Body)
			var err error
			b, err = appendExtensions(b, m.Extensions)
			if err != nil {
				return nil, err
			}
		} else {
			var o int
			b, o = grow(dst, icmpHeaderLen+len(m.Body))
			b[o+4], b[o+5], b[o+6], b[o+7] = 0, 0, 0, 0
			copy(b[o+icmpHeaderLen:], m.Body)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported ICMP type %d", ErrBadHeader, m.Type)
	}
	b[off] = m.Type
	b[off+1] = m.Code
	b[off+2], b[off+3] = 0, 0
	binary.BigEndian.PutUint16(b[off+2:], Checksum(b[off:]))
	return b, nil
}

// appendExtensions appends the RFC 4884 extension structure (version
// header, checksum, objects) onto dst.
func appendExtensions(dst []byte, objs []ExtensionObject) ([]byte, error) {
	off := len(dst)
	b, o := grow(dst, extHeaderLen)
	b[o] = ExtensionVersion << 4
	b[o+1], b[o+2], b[o+3] = 0, 0, 0
	for i := range objs {
		olen := objectHeaderLen + len(objs[i].Payload)
		if olen > 0xffff {
			return nil, fmt.Errorf("%w: object too large", ErrBadExtension)
		}
		b, o = grow(b, olen)
		binary.BigEndian.PutUint16(b[o:], uint16(olen))
		b[o+2] = objs[i].Class
		b[o+3] = objs[i].CType
		copy(b[o+objectHeaderLen:], objs[i].Payload)
	}
	binary.BigEndian.PutUint16(b[off+2:], Checksum(b[off:]))
	return b, nil
}

// UnmarshalICMP parses an ICMPv4 message, verifying the message checksum
// and, when present, the RFC 4884 extension structure checksum. The
// returned message owns its body and extension payloads.
func UnmarshalICMP(b []byte) (*ICMP, error) {
	m := new(ICMP)
	if err := UnmarshalICMPInto(m, b); err != nil {
		return nil, err
	}
	m.Body = append([]byte(nil), m.Body...)
	for i := range m.Extensions {
		m.Extensions[i].Payload = append([]byte(nil), m.Extensions[i].Payload...)
	}
	return m, nil
}

// UnmarshalICMPInto parses an ICMPv4 message into m without allocating
// beyond m's own reusable storage: m.Body and every extension payload
// alias b, and m.Extensions reuses its previous capacity. b must stay live
// and unmodified for as long as m is in use. Verification matches
// UnmarshalICMP.
func UnmarshalICMPInto(m *ICMP, b []byte) error {
	if len(b) < icmpHeaderLen {
		return ErrShortPacket
	}
	if Checksum(b) != 0 {
		return ErrBadChecksum
	}
	// Extensions keeps its capacity (at length 0) through messages that
	// carry none, so alternating plain and extended replies never
	// reallocate it.
	*m = ICMP{Type: b[0], Code: b[1], Extensions: m.Extensions[:0]}
	ext := m.Extensions
	switch {
	case m.Type == ICMPEchoRequest || m.Type == ICMPEchoReply:
		m.ID = binary.BigEndian.Uint16(b[4:])
		m.Seq = binary.BigEndian.Uint16(b[6:])
		m.Body = b[icmpHeaderLen:]
	case m.IsError():
		words := int(b[5])
		rest := b[icmpHeaderLen:]
		if words == 0 {
			// No extensions signalled: everything is original datagram.
			m.Body = rest
			return nil
		}
		origLen := words * 4
		if origLen < origDatagramPadLen {
			// RFC 4884: the original datagram field must be at least
			// 128 bytes when the length attribute is used.
			return fmt.Errorf("%w: length field %d words", ErrBadExtension, words)
		}
		if len(rest) < origLen {
			return fmt.Errorf("%w: original datagram truncated", ErrBadExtension)
		}
		m.Body = trimOriginal(rest[:origLen])
		objs, err := appendUnmarshaledExtensions(ext, rest[origLen:])
		if err != nil {
			return err
		}
		m.Extensions = objs
	default:
		return fmt.Errorf("%w: unsupported ICMP type %d", ErrBadHeader, m.Type)
	}
	return nil
}

// appendUnmarshaledExtensions parses an RFC 4884 extension structure,
// appending the objects onto dst. Object payloads alias b.
func appendUnmarshaledExtensions(dst []ExtensionObject, b []byte) ([]ExtensionObject, error) {
	if len(b) < extHeaderLen {
		return nil, fmt.Errorf("%w: structure truncated", ErrBadExtension)
	}
	if b[0]>>4 != ExtensionVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadExtension, b[0]>>4)
	}
	if binary.BigEndian.Uint16(b[2:]) != 0 && Checksum(b) != 0 {
		return nil, fmt.Errorf("%w: bad extension checksum", ErrBadExtension)
	}
	objs := dst
	off := extHeaderLen
	for off < len(b) {
		if len(b)-off < objectHeaderLen {
			return nil, fmt.Errorf("%w: object header truncated", ErrBadExtension)
		}
		olen := int(binary.BigEndian.Uint16(b[off:]))
		if olen < objectHeaderLen || off+olen > len(b) {
			return nil, fmt.Errorf("%w: object length %d", ErrBadExtension, olen)
		}
		objs = append(objs, ExtensionObject{
			Class:   b[off+2],
			CType:   b[off+3],
			Payload: b[off+objectHeaderLen : off+olen],
		})
		off += olen
	}
	return objs, nil
}

// NewMPLSExtension builds the RFC 4950 incoming-label-stack object from s.
func NewMPLSExtension(s mpls.Stack) (ExtensionObject, error) {
	payload, err := s.Marshal()
	if err != nil {
		return ExtensionObject{}, err
	}
	return ExtensionObject{Class: ClassMPLSLabelStack, CType: CTypeIncomingStack, Payload: payload}, nil
}

// MPLSStack extracts the quoted MPLS label stack from the message's
// RFC 4950 extension object, if present.
func (m *ICMP) MPLSStack() (mpls.Stack, bool) {
	return m.AppendMPLSStack(nil)
}

// AppendMPLSStack is MPLSStack appending the quoted entries onto dst,
// allocating only when dst lacks capacity; when there is no stack to
// decode it returns dst unchanged and false.
func (m *ICMP) AppendMPLSStack(dst mpls.Stack) (mpls.Stack, bool) {
	for _, o := range m.Extensions {
		if o.Class == ClassMPLSLabelStack && o.CType == CTypeIncomingStack {
			s, _, err := mpls.AppendUnmarshalStack(dst, o.Payload)
			return s, err == nil
		}
	}
	return dst, false
}

// QuotedIPv4 parses the quoted original datagram of an error message,
// tolerating the truncated quotes many routers emit.
func (m *ICMP) QuotedIPv4() (*IPv4, error) {
	if !m.IsError() {
		return nil, fmt.Errorf("%w: not an error message", ErrBadHeader)
	}
	return UnmarshalIPv4Quoted(m.Body)
}

// String summarizes the message for debugging.
func (m *ICMP) String() string {
	return fmt.Sprintf("ICMP type=%d code=%d body=%d ext=%d", m.Type, m.Code, len(m.Body), len(m.Extensions))
}
