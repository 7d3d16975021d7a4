package core

import (
	"net/netip"

	"arest/internal/fingerprint"
	"arest/internal/mpls"
	"arest/internal/probe"
)

// Hop is one annotated hop: the traceroute observation plus the vendor
// fingerprint and AS ownership annotations AReST consumes.
type Hop struct {
	Addr     netip.Addr
	Stack    mpls.Stack
	Vendor   mpls.Vendor
	Source   fingerprint.Source
	ASN      int
	Revealed bool
	// QTTL carries the quoted IP TTL so implicit-tunnel hops can be
	// classified as MPLS area even without LSEs.
	QTTL uint8
	// Terminal marks the destination's own reply (port unreachable). The
	// same router already appeared at the previous TTL as a time-exceeded
	// hop, so terminal hops never extend label sequences: counting them
	// would let any egress that quotes its received stack twice fabricate
	// a two-hop "consecutive" run out of a single router.
	Terminal bool
}

// HasStack reports whether the hop quoted at least one LSE.
func (h *Hop) HasStack() bool { return len(h.Stack) > 0 }

// Fingerprinted reports whether a vendor annotation is available.
func (h *Hop) Fingerprinted() bool { return h.Vendor != mpls.VendorUnknown }

// Path is an annotated trace: the unit AReST analyzes. Unresponsive hops
// are dropped during construction; Hops holds only observations.
type Path struct {
	VP, Dst netip.Addr
	Hops    []Hop
}

// BuildPath annotates a trace with vendor fingerprints and AS ownership.
// asOf may be nil when AS annotation is unavailable (0 is recorded).
// The path owns its memory: one Hops slice and one LSE slab holding a
// copy of every kept hop's stack (nil stacks stay nil, empty ones empty).
func BuildPath(tr *probe.Trace, ann *fingerprint.Annotator, asOf func(netip.Addr) int) *Path {
	p := new(Path)
	var a Arena
	BuildPathInto(p, &a, tr, ann, asOf)
	return p
}

// BuildPathInto is BuildPath writing the path into dst, with its hops and
// stacks appended to a. Hops is nil when no hop responded.
func BuildPathInto(dst *Path, a *Arena, tr *probe.Trace, ann *fingerprint.Annotator, asOf func(netip.Addr) int) {
	n, lses := 0, 0
	for i := range tr.Hops {
		if tr.Hops[i].Responded() {
			n++
			lses += len(tr.Hops[i].Stack)
		}
	}
	a.hops = reserve(a.hops, n) // one allocation per path, not one per doubling
	a.lses = reserve(a.lses, lses)
	base := len(a.hops)
	for i := range tr.Hops {
		th := &tr.Hops[i]
		if !th.Responded() {
			continue
		}
		// Written in place: appending a Hop built beside the slice copies it.
		a.hops = append(a.hops, Hop{})
		h := &a.hops[len(a.hops)-1]
		h.Addr = th.Addr
		if th.Stack != nil {
			k := len(a.lses)
			a.lses = append(a.lses, th.Stack...)
			h.Stack = tail(a.lses, k)
		}
		h.Revealed = th.Revealed
		h.QTTL = th.QTTL
		h.Terminal = th.ICMPType == 3 // destination unreachable
		if ann != nil {
			r := ann.Vendor(th.Addr)
			h.Vendor, h.Source = r.Vendor, r.Source
		}
		if asOf != nil {
			h.ASN = asOf(th.Addr)
		}
	}
	*dst = Path{VP: tr.VP, Dst: tr.Dst}
	if n > 0 {
		dst.Hops = tail(a.hops, base)
	}
}

// RestrictToAS returns the sub-path of hops annotated with the given ASN,
// mirroring the paper's bdrmapIT-based delimitation of the AS of interest.
// Contiguity is preserved: only the first maximal run inside the AS is
// returned (paths normally enter and leave an AS once). The result shares
// the receiver's hops instead of copying them: a write to one hop shows
// in both paths, while appending to the result never overwrites the
// receiver's later hops (its capacity ends at the run).
func (p *Path) RestrictToAS(asn int) *Path {
	out := new(Path)
	p.RestrictToASInto(out, asn)
	return out
}

// RestrictToASInto is RestrictToAS writing the sub-path into dst, which
// may be p itself. It returns the index in p.Hops of the sub-path's first
// hop (0 when the sub-path is empty), so a caller holding values parallel
// to p.Hops can restrict them alike.
func (p *Path) RestrictToASInto(dst *Path, asn int) (start int) {
	start, end := -1, len(p.Hops)
	for i := range p.Hops {
		if p.Hops[i].ASN == asn {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			end = i
			break
		}
	}
	var hops []Hop
	if start >= 0 {
		hops = p.Hops[start:end:end]
	}
	*dst = Path{VP: p.VP, Dst: p.Dst, Hops: hops}
	return max(start, 0)
}
