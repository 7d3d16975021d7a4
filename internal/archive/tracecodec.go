// The v3 trace payload codec: a fixed-layout binary encoding of one
// TraceRecord, replacing the JSON payload that TypeTrace records carry in
// v2. Every other record type keeps its v2 JSON schema. A replay decodes
// one trace record per probe sweep, so this file is on the wire path and
// allocation-budgeted (DESIGN.md §11): encoding appends into a caller-held
// buffer without allocating; StreamRecords decodes into one reused trace
// that it lends to its visitor, so a warmed decode allocates nothing, and
// UnmarshalTraceRecordInto allocates only the Trace, its Hops and one LSE
// slab shared by every hop's stack (both allocate the text of failure
// fields and address zones, when present).
//
// Layout (varint: zigzag binary.AppendVarint; uvarint: binary.AppendUvarint):
//
//	vp_index     varint
//	vp, dst      addr, addr
//	flow_id      uvarint (<= 0xffff)
//	halt         varint
//	err          str
//	reveal_errs  uvarint count, then count × str
//	hops         uvarint: 0 for nil Hops, else len(Hops)+1
//	lses         uvarint: LSE count summed over every hop's stack
//	hop          repeated len(Hops) times:
//	  ttl        varint
//	  addr       addr
//	  rtt        8 bytes: math.Float64bits, big-endian
//	  icmp_type, icmp_code, reply_ttl, qttl   1 byte each
//	  flags      1 byte: 0x01 Revealed, 0x02 DecodeError (other bits zero)
//	  stack      uvarint depth, then depth × 4-byte LSE (own S bit kept)
//
//	addr  tag byte 0 (zero Addr) | 4, then 4 bytes | 16, then 16 bytes and a zone str
//	str   uvarint length, then the bytes
//
// Decoding is strict — unknown tags or flag bits, counts the remaining
// bytes cannot hold, an LSE total that the stacks do not consume exactly,
// and trailing bytes are all ErrCorrupt — so decode∘encode is the identity
// on every payload the decoder accepts.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"

	"arest/internal/mpls"
	"arest/internal/probe"
)

// Address tags of the v3 trace payload.
const (
	addrNone = 0
	addrV4   = 4
	addrV6   = 16
)

// Hop flag bits of the v3 trace payload.
const (
	hopRevealed    = 0x01
	hopDecodeError = 0x02
)

// minHopSize is the smallest encoded hop (one-byte TTL, zero address,
// RTT, the four ICMP bytes, flags, empty stack): the bound a declared hop
// count is checked against before Hops is allocated.
const minHopSize = 1 + 1 + 8 + 4 + 1 + 1

// AppendMarshal appends rec's v3 payload to dst and returns the extended
// slice, allocating only when dst lacks capacity. An LSE that fails
// mpls.LSE.Valid is an error, never a silently truncated field.
func (rec TraceRecord) AppendMarshal(dst []byte) ([]byte, error) {
	tr := rec.Trace
	if tr == nil {
		return nil, errors.New("archive: trace record without trace body")
	}
	dst = binary.AppendVarint(dst, int64(rec.VPIndex))
	dst = appendAddr(dst, tr.VP)
	dst = appendAddr(dst, tr.Dst)
	dst = binary.AppendUvarint(dst, uint64(tr.FlowID))
	dst = binary.AppendVarint(dst, int64(tr.Halt))
	dst = appendString(dst, tr.Err)
	dst = binary.AppendUvarint(dst, uint64(len(tr.RevealErrs)))
	for _, s := range tr.RevealErrs {
		dst = appendString(dst, s)
	}
	if tr.Hops == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(tr.Hops))+1)
	}
	lses := 0
	for i := range tr.Hops {
		lses += len(tr.Hops[i].Stack)
	}
	dst = binary.AppendUvarint(dst, uint64(lses))
	for i := range tr.Hops {
		h := &tr.Hops[i]
		dst = binary.AppendVarint(dst, int64(h.TTL))
		dst = appendAddr(dst, h.Addr)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.RTT))
		var flags byte
		if h.Revealed {
			flags |= hopRevealed
		}
		if h.DecodeError {
			flags |= hopDecodeError
		}
		dst = append(dst, h.ICMPType, h.ICMPCode, h.ReplyTTL, h.QTTL, flags)
		dst = binary.AppendUvarint(dst, uint64(len(h.Stack)))
		for j, e := range h.Stack {
			var err error
			if dst, err = e.AppendMarshal(dst); err != nil {
				return nil, fmt.Errorf("archive: encode trace: hop %d entry %d: %w", i, j, err)
			}
		}
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendAddr(dst []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		return append(dst, addrNone)
	case a.Is4():
		b := a.As4()
		return append(append(dst, addrV4), b[:]...)
	default:
		b := a.As16()
		return appendString(append(append(dst, addrV6), b[:]...), a.Zone())
	}
}

// UnmarshalTraceRecordInto decodes one v3 trace payload into rec. Every
// decoded field is copied out of b, so the caller may reuse b at once.
// Every count is checked against the bytes that remain before anything is
// allocated for it, so a forged count cannot drive an allocation larger
// than a small multiple of len(b). The decoded trace owns its memory: the
// Trace, its Hops and one LSE slab.
func UnmarshalTraceRecordInto(rec *TraceRecord, b []byte) error {
	var l lentTrace
	vpIndex, err := l.decode(b)
	if err != nil {
		return err
	}
	*rec = TraceRecord{VPIndex: vpIndex, Trace: new(probe.Trace)}
	*rec.Trace = l.tr
	return nil
}

// lentTrace is the one trace StreamRecords decodes every v3 trace payload
// into and lends to its visitor: the Trace, its Hops and the LSE slab the
// hops' stacks slice keep their capacity from one payload to the next, so
// a warmed decode allocates nothing but the text of failure fields and
// address zones.
type lentTrace struct {
	tr   probe.Trace
	slab mpls.Stack
}

// decode decodes one v3 trace payload into l.tr, overwriting every field
// the previous payload set, and returns its VP index. On error l.tr holds
// no valid trace.
func (l *lentTrace) decode(b []byte) (vpIndex int, err error) {
	d := decoder{b: b}
	vpIndex = d.int()
	tr := &l.tr
	tr.VP = d.addr()
	tr.Dst = d.addr()
	flow := d.uvarint()
	if flow > math.MaxUint16 {
		d.bad = true
	}
	tr.FlowID = uint16(flow)
	tr.Halt = probe.HaltReason(d.int())
	tr.Err = d.str()
	tr.RevealErrs = nil
	if n := d.count(1); n > 0 {
		tr.RevealErrs = make([]string, n)
		for i := range tr.RevealErrs {
			tr.RevealErrs[i] = d.str()
		}
	}
	hops := tr.Hops[:0]
	tr.Hops = nil
	if n := d.uvarint(); n > 0 {
		n--
		switch {
		case n > uint64(len(d.b)/minHopSize):
			d.bad = true
		case n <= uint64(cap(hops)) && hops != nil:
			tr.Hops = hops[:n]
		default:
			tr.Hops = make([]probe.Hop, n)
		}
	}
	var slab mpls.Stack
	if n := d.count(mpls.LSESize); n > 0 {
		if n > cap(l.slab) {
			l.slab = make(mpls.Stack, n)
		}
		slab = l.slab[:n]
	}
	for i := range tr.Hops {
		if d.bad {
			break
		}
		h := &tr.Hops[i]
		*h = probe.Hop{TTL: d.int(), Addr: d.addr(), RTT: math.Float64frombits(d.uint64())}
		fixed := d.take(5)
		if fixed == nil {
			break
		}
		h.ICMPType, h.ICMPCode, h.ReplyTTL, h.QTTL = fixed[0], fixed[1], fixed[2], fixed[3]
		if fixed[4]&^(hopRevealed|hopDecodeError) != 0 {
			d.bad = true
		}
		h.Revealed = fixed[4]&hopRevealed != 0
		h.DecodeError = fixed[4]&hopDecodeError != 0
		depth := d.uvarint()
		if depth > uint64(len(slab)) {
			d.bad = true
			break
		}
		if depth == 0 {
			continue
		}
		// Full slice expressions: an append to one hop's stack must not
		// overwrite the next hop's entries in the shared slab.
		h.Stack, slab = slab[:depth:depth], slab[depth:]
		for j := range h.Stack {
			e, err := mpls.UnmarshalLSE(d.take(mpls.LSESize))
			if err != nil {
				d.bad = true
				break
			}
			h.Stack[j] = e
		}
	}
	if d.bad || len(slab) != 0 || len(d.b) != 0 {
		return 0, fmt.Errorf("%w: malformed v3 trace payload (%d bytes)", ErrCorrupt, len(b))
	}
	return vpIndex, nil
}

// decoder is a forward-only cursor over one payload. The first malformed
// read sets bad, after which every read yields a zero value, so the
// decoder checks once at the end instead of after every field.
type decoder struct {
	b   []byte
	bad bool
}

// take consumes the next n bytes, or returns nil and marks the payload bad
// when fewer remain.
func (d *decoder) take(n int) []byte {
	if d.bad || len(d.b) < n {
		d.bad = true
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a varint that must fit the platform int.
func (d *decoder) int() int {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// count reads a uvarint element count and checks that the remaining bytes
// can hold that many elements of at least minSize bytes each.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	return string(d.take(d.count(1)))
}

func (d *decoder) addr() netip.Addr {
	tag := d.take(1)
	if tag == nil {
		return netip.Addr{}
	}
	switch tag[0] {
	case addrNone:
		return netip.Addr{}
	case addrV4:
		if b := d.take(4); b != nil {
			return netip.AddrFrom4([4]byte(b))
		}
	case addrV6:
		if b := d.take(16); b != nil {
			a := netip.AddrFrom16([16]byte(b))
			if zone := d.str(); zone != "" {
				a = a.WithZone(zone)
			}
			return a
		}
	default:
		d.bad = true
	}
	return netip.Addr{}
}
