package core

import (
	"arest/internal/mpls"
)

// Segment is a contiguous sequence of hops — excluding the SR source — that
// raised one of the detection flags.
type Segment struct {
	// Start and End are inclusive hop indexes into the analyzed Path.
	Start, End int
	Flag       Flag
	// Label is the shared active label for sequence flags (CVR/CO), or the
	// active label for the single-hop flags.
	Label uint32
	// SuffixMatch marks CVR/CO sequences detected through suffix-based
	// matching across differing SRGB ranges rather than strict equality.
	SuffixMatch bool
	// StackDepths records the LSE stack depth at each hop of the segment.
	StackDepths []int
}

// Len returns the number of hops in the segment.
func (s *Segment) Len() int { return s.End - s.Start + 1 }

// Detector runs the AReST flag analysis.
type Detector struct {
	// SuffixMatching enables cross-SRGB suffix matching for the sequence
	// flags (footnote 4 of the paper). Enabled by default.
	SuffixMatching bool
	// MinRun is the minimum number of consecutive same-label hops for the
	// sequence flags; the paper uses 2.
	MinRun int
}

// NewDetector returns a detector with the paper's settings.
func NewDetector() *Detector {
	return &Detector{SuffixMatching: true, MinRun: 2}
}

// Result is the per-path AReST output.
type Result struct {
	Path     *Path
	Segments []Segment
	// Areas classifies every hop of the path (parallel slice).
	Areas []Area
}

// Area is the routing mechanism a hop is attributed to.
type Area int

const (
	AreaIP Area = iota
	AreaMPLS
	AreaSR
)

func (a Area) String() string {
	switch a {
	case AreaSR:
		return "sr"
	case AreaMPLS:
		return "mpls"
	default:
		return "ip"
	}
}

// suffixMatch reports whether two different labels plausibly encode the
// same SID index under different SRGB bases: equal low-order digits with a
// base difference that is a whole multiple of 1,000 (e.g. 16,005 → 13,005).
func suffixMatch(a, b uint32) bool {
	if a == b {
		return false
	}
	if a%1000 != b%1000 {
		return false
	}
	return true
}

// sameSegmentLabel reports whether consecutive hops carry the same active
// segment, by strict equality or (optionally) suffix matching.
func (d *Detector) sameSegmentLabel(a, b uint32) (match, suffix bool) {
	if a == b {
		return true, false
	}
	if d.SuffixMatching && suffixMatch(a, b) {
		return true, true
	}
	return false, false
}

// sequenceEligible reports whether a hop can participate in flag
// detection: it must be a labeled transit observation whose active label is
// not a reserved value — explicit-null (0) and other special-purpose labels
// are plain MPLS plumbing, never Segment Routing evidence.
func sequenceEligible(h *Hop) bool {
	return h.HasStack() && !h.Terminal && !h.Stack.Top().Reserved()
}

// vendorRangeHit reports whether the hop is fingerprinted to a vendor whose
// recognized SR ranges contain the hop's active label.
func vendorRangeHit(h *Hop) bool {
	if !h.Fingerprinted() || !h.HasStack() {
		return false
	}
	return mpls.InVendorSRRange(h.Vendor, h.Stack.Top().Label)
}

// Analyze runs the flag detection over one annotated path.
//
// Sequence flags (CVR/CO) are matched first on maximal runs of consecutive
// stacked hops sharing the active label; remaining stacked hops receive the
// stack-based flags (LSVR/LVR/LSO). Hops with a single LSE and no vendor
// range evidence stay unflagged (classic MPLS).
func (d *Detector) Analyze(p *Path) *Result {
	res := new(Result)
	var a Arena
	d.AnalyzeInto(res, &a, p)
	return res
}

// AnalyzeInto is Analyze writing the result into dst, with its segments,
// stack depths and areas appended to a. Segments is nil when no hop is
// flagged; Areas is never nil.
func (d *Detector) AnalyzeInto(dst *Result, a *Arena, p *Path) {
	hops := p.Hops
	minRun := d.MinRun
	if minRun < 2 {
		minRun = 2
	}
	segBase := len(a.segs)

	// Pass 1: CVR / CO maximal runs over transit hops (terminal replies
	// are the destination re-quoting what the previous hop already showed).
	for i := 0; i < len(hops); i++ {
		if !sequenceEligible(&hops[i]) {
			continue
		}
		j := i
		anySuffix := false
		for j+1 < len(hops) && sequenceEligible(&hops[j+1]) {
			m, sfx := d.sameSegmentLabel(hops[j].Stack.Top().Label, hops[j+1].Stack.Top().Label)
			if !m {
				break
			}
			anySuffix = anySuffix || sfx
			j++
		}
		if j-i+1 >= minRun {
			seg := Segment{Start: i, End: j, Flag: FlagCO,
				Label: hops[i].Stack.Top().Label, SuffixMatch: anySuffix}
			k0 := len(a.depths)
			for k := i; k <= j; k++ {
				a.depths = append(a.depths, hops[k].Stack.Depth())
				if vendorRangeHit(&hops[k]) {
					seg.Flag = FlagCVR
				}
			}
			seg.StackDepths = tail(a.depths, k0)
			a.segs = append(a.segs, seg)
			i = j
		}
	}
	seqEnd := len(a.segs)

	// Pass 2: stack-based flags on the remaining stacked transit hops. The
	// pass-1 runs are disjoint and in hop order, so one cursor tells
	// whether hop i lies inside one.
	run := segBase
	for i := 0; i < len(hops); i++ {
		for run < seqEnd && a.segs[run].End < i {
			run++
		}
		h := &hops[i]
		if run < seqEnd && a.segs[run].Start <= i || !sequenceEligible(h) {
			continue
		}
		var flag Flag
		switch {
		case h.Stack.Depth() >= 2 && vendorRangeHit(h):
			flag = FlagLSVR
		case h.Stack.Depth() >= 2:
			flag = FlagLSO
		case vendorRangeHit(h):
			flag = FlagLVR
		default:
			continue // single label, no evidence: classic MPLS
		}
		k0 := len(a.depths)
		a.depths = append(a.depths, h.Stack.Depth())
		a.segs = append(a.segs, Segment{
			Start: i, End: i, Flag: flag,
			Label:       h.Stack.Top().Label,
			StackDepths: tail(a.depths, k0),
		})
	}
	var segs []Segment
	if len(a.segs) > segBase {
		segs = tail(a.segs, segBase)
		sortSegments(segs)
	}

	// Area partition: strong-flag hops are SR; other hops with MPLS
	// evidence (any LSE, revelation, or the implicit-tunnel qTTL
	// signature) are MPLS; the rest are IP. This is the conservative
	// partition of Sec. 7.1 (LSO counts as MPLS, not SR).
	a.areas = reserve(a.areas, len(hops))
	areaBase := len(a.areas)
	a.areas = append(a.areas, make([]Area, len(hops))...)
	areas := tail(a.areas, areaBase)
	for _, seg := range segs {
		if !seg.Flag.Strong() {
			continue
		}
		for k := seg.Start; k <= seg.End; k++ {
			areas[k] = AreaSR
		}
	}
	for i := range hops {
		if areas[i] == AreaSR {
			continue
		}
		h := &hops[i]
		if h.HasStack() || h.Revealed || h.QTTL > 1 {
			areas[i] = AreaMPLS
		}
	}
	*dst = Result{Path: p, Segments: segs, Areas: areas}
}

func sortSegments(segs []Segment) {
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].Start < segs[j-1].Start; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
}

// SegmentsByFlag groups a result's segments per flag.
func (r *Result) SegmentsByFlag() map[Flag][]Segment {
	out := make(map[Flag][]Segment)
	for _, s := range r.Segments {
		out[s.Flag] = append(out[s.Flag], s)
	}
	return out
}

// HasSR reports whether the path shows strong SR evidence.
func (r *Result) HasSR() bool {
	for _, s := range r.Segments {
		if s.Flag.Strong() {
			return true
		}
	}
	return false
}
