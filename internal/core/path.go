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
func BuildPath(tr *probe.Trace, ann *fingerprint.Annotator, asOf func(netip.Addr) int) *Path {
	p := &Path{VP: tr.VP, Dst: tr.Dst}
	n := 0
	for i := range tr.Hops {
		if tr.Hops[i].Responded() {
			n++
		}
	}
	if n > 0 {
		p.Hops = make([]Hop, 0, n) // one allocation per path, not one per doubling
	}
	for i := range tr.Hops {
		th := &tr.Hops[i]
		if !th.Responded() {
			continue
		}
		h := Hop{
			Addr:     th.Addr,
			Stack:    th.Stack.Clone(),
			Revealed: th.Revealed,
			QTTL:     th.QTTL,
			Terminal: th.ICMPType == 3, // destination unreachable
		}
		if ann != nil {
			r := ann.Vendor(th.Addr)
			h.Vendor, h.Source = r.Vendor, r.Source
		}
		if asOf != nil {
			h.ASN = asOf(th.Addr)
		}
		p.Hops = append(p.Hops, h)
	}
	return p
}

// RestrictToAS returns the sub-path of hops annotated with the given ASN,
// mirroring the paper's bdrmapIT-based delimitation of the AS of interest.
// Contiguity is preserved: only the first maximal run inside the AS is
// returned (paths normally enter and leave an AS once).
func (p *Path) RestrictToAS(asn int) *Path {
	out := &Path{VP: p.VP, Dst: p.Dst}
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
	if start >= 0 {
		out.Hops = append([]Hop(nil), p.Hops[start:end]...)
	}
	return out
}

// DistinctAddrs returns the set of distinct hop addresses on the path.
func (p *Path) DistinctAddrs() map[netip.Addr]bool {
	out := make(map[netip.Addr]bool, len(p.Hops))
	for i := range p.Hops {
		out[p.Hops[i].Addr] = true
	}
	return out
}
