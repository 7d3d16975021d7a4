// Package probe implements the measurement tools of the pipeline: a Paris
// traceroute engine (flow-stable probing), TNT-style MPLS tunnel
// classification (explicit / implicit / opaque / invisible) and revelation
// of hidden tunnel content, and ping support for TTL fingerprinting.
//
// Probes cross the network boundary as serialized IPv4/UDP/ICMP bytes, so
// the engine exercises exactly the codec path a raw-socket tool would.
package probe

//arest:allow noerrdrop the only discarded errors in this file are fmt.Fprintf into a strings.Builder, whose Write is documented to always return a nil error; String renders diagnostics and carries no measurement

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"arest/internal/mpls"
)

// Hop is one traceroute hop observation.
type Hop struct {
	TTL      int        `json:"ttl"`
	Addr     netip.Addr `json:"addr"` // zero value: no reply ("*")
	RTT      float64    `json:"rtt_ms"`
	ICMPType uint8      `json:"icmp_type"`
	ICMPCode uint8      `json:"icmp_code"`
	// ReplyTTL is the received IP TTL of the reply; subtracting it from the
	// inferred initial TTL estimates the return path length (RTLA) and
	// feeds TTL fingerprinting.
	ReplyTTL uint8 `json:"reply_ttl"`
	// QTTL is the quoted IP TTL from the ICMP error body; values above 1
	// are the classic implicit-tunnel signature.
	QTTL uint8 `json:"qttl"`
	// Stack is the RFC 4950-quoted label stack, nil when absent.
	Stack mpls.Stack `json:"stack,omitempty"`
	// Revealed marks hops discovered by TNT revelation (DPR) rather than
	// by the original trace; their LSEs are unavailable by construction.
	Revealed bool `json:"revealed,omitempty"`
	// DecodeError marks a hop that answered with a reply whose ICMP
	// payload failed strict parsing: the responder address, reply TTL and
	// RTT are real observations, but ICMPType/ICMPCode, the quoted TTL and
	// the label stack are unavailable. Such hops count as responsive (no
	// retries, no gap) but never as destination-reached evidence.
	DecodeError bool `json:"decode_error,omitempty"`
}

// Responded reports whether the hop replied at all.
func (h *Hop) Responded() bool { return h.Addr.IsValid() }

// HasStack reports whether the hop quoted at least one LSE.
func (h *Hop) HasStack() bool { return len(h.Stack) > 0 }

// HaltReason explains why a trace stopped.
type HaltReason int

const (
	// HaltReached: the destination answered.
	HaltReached HaltReason = iota
	// HaltGaps: too many consecutive unresponsive hops.
	HaltGaps
	// HaltMaxTTL: the TTL budget ran out.
	HaltMaxTTL
	// HaltLoop: a forwarding loop was detected.
	HaltLoop
	// HaltError: a probe exchange failed after exhausting the retry
	// budget. The trace keeps every hop measured before the failure and
	// records the error text in Trace.Err; it is a degraded observation,
	// not an aborted one.
	HaltError
)

func (r HaltReason) String() string {
	switch r {
	case HaltReached:
		return "reached"
	case HaltGaps:
		return "gaps"
	case HaltMaxTTL:
		return "max-ttl"
	case HaltLoop:
		return "loop"
	case HaltError:
		return "error"
	default:
		return "?"
	}
}

// Trace is one Paris traceroute path, possibly augmented by TNT revelation.
type Trace struct {
	VP     netip.Addr `json:"vp"`
	Dst    netip.Addr `json:"dst"`
	FlowID uint16     `json:"flow_id"`
	Hops   []Hop      `json:"hops"`
	Halt   HaltReason `json:"halt"`
	// Err is the transport error that halted the sweep when Halt ==
	// HaltError, empty otherwise. It is recorded as text so a trace —
	// including its failure — survives an archive round-trip unchanged.
	Err string `json:"err,omitempty"`
	// RevealErrs records auxiliary-trace failures during TNT revelation:
	// a failed DPR leaves the main sweep intact but marks that hidden
	// content may exist that could not be revealed (classification may
	// undercount tunnels). One entry per failed trigger, in hop order.
	RevealErrs []string `json:"reveal_errs,omitempty"`
}

// Clone returns a deep copy of t that owns its memory: the Trace, one
// exact Hops slice and one LSE slab that every hop's stack slices with a
// full slice expression (the layout the v3 archive decoder and the tracer
// produce), plus a RevealErrs slice when t has one.
func (t *Trace) Clone() *Trace {
	n := 0
	for i := range t.Hops {
		n += len(t.Hops[i].Stack)
	}
	out := new(Trace)
	t.CopyInto(out, make([]Hop, 0, len(t.Hops)), make(mpls.Stack, 0, n))
	return out
}

// CopyInto copies t into dst with its hops appended to hops and every
// hop's label stack appended to lses, and returns the extended slabs; it
// allocates only when they lack capacity (and for a non-empty RevealErrs).
// dst shares no memory with t, and nil and empty slices keep their form,
// so dst deep-equals t. Each of dst's hops and stacks is capped at its
// length, so appending to one never overwrites the next.
func (t *Trace) CopyInto(dst *Trace, hops []Hop, lses mpls.Stack) ([]Hop, mpls.Stack) {
	*dst = *t
	dst.RevealErrs = slices.Clone(t.RevealErrs)
	if t.Hops == nil {
		return hops, lses
	}
	if hops == nil {
		hops = []Hop{} // a region of a nil slab would be nil
	}
	if lses == nil {
		lses = mpls.Stack{}
	}
	base := len(hops)
	hops = append(hops, t.Hops...)
	dst.Hops = hops[base:len(hops):len(hops)]
	for i := range dst.Hops {
		if st := dst.Hops[i].Stack; st != nil {
			k := len(lses)
			lses = append(lses, st...)
			dst.Hops[i].Stack = lses[k:len(lses):len(lses)]
		}
	}
	return hops, lses
}

// Failed reports whether the trace was halted by a transport error.
func (t *Trace) Failed() bool { return t.Halt == HaltError }

// Addrs returns the responding hop addresses in path order.
func (t *Trace) Addrs() []netip.Addr {
	var out []netip.Addr
	for i := range t.Hops {
		if t.Hops[i].Responded() {
			out = append(out, t.Hops[i].Addr)
		}
	}
	return out
}

// Reached reports whether the destination answered.
func (t *Trace) Reached() bool { return t.Halt == HaltReached }

func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s -> %s flow=%d (%s)\n", t.VP, t.Dst, t.FlowID, t.Halt)
	for i := range t.Hops {
		h := &t.Hops[i]
		if !h.Responded() {
			fmt.Fprintf(&b, "%3d  *\n", h.TTL)
			continue
		}
		mark := ""
		if h.Revealed {
			mark = " (revealed)"
		}
		if h.HasStack() {
			fmt.Fprintf(&b, "%3d  %-15s %6.2fms %s%s\n", h.TTL, h.Addr, h.RTT, h.Stack, mark)
		} else {
			fmt.Fprintf(&b, "%3d  %-15s %6.2fms%s\n", h.TTL, h.Addr, h.RTT, mark)
		}
	}
	return b.String()
}

// TunnelType is the Donnet et al. MPLS tunnel visibility taxonomy.
type TunnelType int

const (
	TunnelExplicit  TunnelType = iota // LSEs quoted at every hop
	TunnelImplicit                    // hops visible, no LSEs (qTTL signature)
	TunnelOpaque                      // only the ending hop and its LSE visible
	TunnelInvisible                   // nothing visible inside
)

func (t TunnelType) String() string {
	switch t {
	case TunnelExplicit:
		return "explicit"
	case TunnelImplicit:
		return "implicit"
	case TunnelOpaque:
		return "opaque"
	case TunnelInvisible:
		return "invisible"
	default:
		return "?"
	}
}

// Tunnel is a classified MPLS tunnel within a trace: the inclusive hop
// index range [Start, End] of its visible (or revealed) content.
type Tunnel struct {
	Start, End int
	Type       TunnelType
	// HiddenLen is the inferred number of hidden hops for opaque and
	// invisible tunnels (0 otherwise).
	HiddenLen int
}
