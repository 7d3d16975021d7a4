// Package mpls models MPLS label stack entries (RFC 3032), reserved label
// values, vendor Segment Routing label blocks (SRGB/SRLB), and per-router
// dynamic label pools.
//
// The 32-bit label stack entry layout is:
//
//	 0                   1                   2                   3
//	 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//	+-------------------------------+-----+-+---------------+
//	|            Label (20)         | TC  |S|    TTL (8)    |
//	+-------------------------------+-----+-+---------------+
//
// Stack encode/decode runs once per simulated hop; the wire-path
// allocation budgets (DESIGN.md §11) hold its codecs at zero allocations.
package mpls

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// MaxLabel is the largest encodable 20-bit label value.
const MaxLabel = 1<<20 - 1

// LSESize is the encoded size of one label stack entry in bytes.
const LSESize = 4

// Reserved label values defined by RFC 3032 and successors (values 0-15 are
// special purpose; RFC 7274 retires some of them). Values 0-255 are treated
// as reserved for specific MPLS purposes by the paper (Table 1 caption).
const (
	LabelIPv4ExplicitNull = 0 // RFC 3032
	LabelRouterAlert      = 1 // RFC 3032
	LabelIPv6ExplicitNull = 2 // RFC 3032
	LabelImplicitNull     = 3 // RFC 3032 (never on the wire)
	LabelELI              = 7 // RFC 6790 entropy label indicator
	LabelGAL              = 13
	LabelOAMAlert         = 14 // RFC 3429
)

// ErrTruncated is returned when decoding runs out of bytes.
var ErrTruncated = errors.New("mpls: truncated label stack entry")

// ErrLabelRange is returned when a label does not fit in 20 bits.
var ErrLabelRange = errors.New("mpls: label out of 20-bit range")

// LSE is one MPLS label stack entry.
type LSE struct {
	Label uint32 // 20-bit label
	TC    uint8  // 3-bit traffic class (RFC 5462)
	S     bool   // bottom-of-stack flag
	TTL   uint8  // 8-bit time to live
}

// Valid reports whether the LSE fields fit their wire-format widths.
func (e LSE) Valid() bool { return e.Label <= MaxLabel && e.TC <= 7 }

// Reserved reports whether the label is in the special-purpose range 0-15.
func (e LSE) Reserved() bool { return e.Label < 16 }

// AppendMarshal appends the LSE's LSESize wire bytes to dst with the
// entry's own S bit — unlike Stack.AppendMarshal, which forces it — so a
// stored entry round-trips through UnmarshalLSE exactly.
func (e LSE) AppendMarshal(dst []byte) ([]byte, error) {
	if !e.Valid() {
		return nil, fmt.Errorf("%w: label=%d tc=%d", ErrLabelRange, e.Label, e.TC)
	}
	return binary.BigEndian.AppendUint32(dst, e.word()), nil
}

func (e LSE) putInto(b []byte) { binary.BigEndian.PutUint32(b, e.word()) }

func (e LSE) word() uint32 {
	v := e.Label<<12 | uint32(e.TC)<<9 | uint32(e.TTL)
	if e.S {
		v |= 1 << 8
	}
	return v
}

// UnmarshalLSE decodes one LSE from the front of b.
func UnmarshalLSE(b []byte) (LSE, error) {
	if len(b) < LSESize {
		return LSE{}, ErrTruncated
	}
	v := binary.BigEndian.Uint32(b)
	return LSE{
		Label: v >> 12,
		TC:    uint8(v >> 9 & 0x7),
		S:     v>>8&1 == 1,
		TTL:   uint8(v),
	}, nil
}

// String renders the LSE in the conventional traceroute-style notation.
func (e LSE) String() string {
	s := 0
	if e.S {
		s = 1
	}
	return fmt.Sprintf("L=%d,TC=%d,S=%d,TTL=%d", e.Label, e.TC, s, e.TTL)
}

// Stack is an ordered MPLS label stack; index 0 is the top (active) entry.
type Stack []LSE

// AppendMarshal encodes the stack onto dst top-first and returns the
// extended slice, allocating only when dst lacks capacity. It forces the
// S bit so that only the bottom entry carries it, as RFC 3032 requires;
// an empty stack appends nothing.
func (s Stack) AppendMarshal(dst []byte) ([]byte, error) {
	off := len(dst)
	if cap(dst) >= off+len(s)*LSESize {
		dst = dst[:off+len(s)*LSESize]
	} else {
		out := make([]byte, off+len(s)*LSESize)
		copy(out, dst)
		dst = out
	}
	for i, e := range s {
		if !e.Valid() {
			return nil, fmt.Errorf("%w: entry %d label=%d", ErrLabelRange, i, e.Label)
		}
		e.S = i == len(s)-1
		e.putInto(dst[off+i*LSESize:])
	}
	return dst, nil
}

// AppendUnmarshalStack decodes entries until the bottom-of-stack flag is
// set, appending them onto dst and allocating only when dst lacks
// capacity. It returns the extended stack and the number of bytes
// consumed; on error it returns dst with its original length.
func AppendUnmarshalStack(dst Stack, b []byte) (Stack, int, error) {
	s := dst
	off := 0
	for {
		e, err := UnmarshalLSE(b[off:])
		if err != nil {
			return dst, off, err
		}
		s = append(s, e)
		off += LSESize
		if e.S {
			return s, off, nil
		}
		if len(s)-len(dst) > MaxStackDepth {
			return dst, off, fmt.Errorf("mpls: stack exceeds %d entries without bottom flag", MaxStackDepth)
		}
	}
}

// MaxStackDepth bounds decoding of malformed stacks that never set S.
const MaxStackDepth = 64

// Top returns the active (topmost) entry. It panics on an empty stack;
// use Depth to guard.
func (s Stack) Top() LSE { return s[0] }

// Depth returns the number of entries.
func (s Stack) Depth() int { return len(s) }

// String renders the stack as "[top | ... | bottom]".
func (s Stack) String() string {
	if len(s) == 0 {
		return "[]"
	}
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, " | ") + "]"
}
