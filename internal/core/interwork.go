package core

// CloudKind tags a region inside a labeled tunnel.
type CloudKind int

const (
	CloudSR CloudKind = iota
	CloudLDP
)

func (k CloudKind) String() string {
	if k == CloudSR {
		return "sr"
	}
	return "ldp"
}

// Cloud is one homogeneous region of a tunnel.
type Cloud struct {
	Kind CloudKind
	Len  int // hops
}

// Pattern is the chaining of SR and LDP clouds inside one tunnel.
type Pattern string

const (
	PatternFullSR   Pattern = "full-sr"
	PatternFullLDP  Pattern = "full-ldp"
	PatternSRLDP    Pattern = "sr-ldp"
	PatternLDPSR    Pattern = "ldp-sr"
	PatternLDPSRLDP Pattern = "ldp-sr-ldp"
	PatternSRLDPSR  Pattern = "sr-ldp-sr"
	PatternOther    Pattern = "other"
)

// TunnelAnalysis describes one labeled tunnel found on a path.
type TunnelAnalysis struct {
	Start, End int
	Clouds     []Cloud
	Pattern    Pattern
}

// Interworking reports whether the tunnel mixes SR and LDP clouds.
func (t *TunnelAnalysis) Interworking() bool {
	return t.Pattern != PatternFullSR && t.Pattern != PatternFullLDP
}

// Tunnels segments the path into maximal runs of LSE-carrying hops and
// classifies each run's SR/LDP structure. A hop belongs to the SR cloud
// when a strong flag covers it, and to the LDP cloud otherwise — single
// labels outside vendor SR ranges are exactly what classic LDP exposes.
func (r *Result) Tunnels() []TunnelAnalysis {
	var a Arena
	return r.TunnelsInto(&a)
}

// TunnelsInto is Tunnels with the analyses and their clouds appended to a.
// It returns nil when the path carries no tunnel.
func (r *Result) TunnelsInto(a *Arena) []TunnelAnalysis {
	hops := r.Path.Hops
	base := len(a.tunnels)
	for i := 0; i < len(hops); i++ {
		if !hops[i].HasStack() || hops[i].Terminal {
			continue
		}
		j := i
		for j+1 < len(hops) && hops[j+1].HasStack() && !hops[j+1].Terminal {
			j++
		}
		c0 := len(a.clouds)
		for k := i; k <= j; k++ {
			kind := CloudLDP
			if r.strongAt(k) {
				kind = CloudSR
			}
			if n := len(a.clouds); n > c0 && a.clouds[n-1].Kind == kind {
				a.clouds[n-1].Len++
			} else {
				a.clouds = append(a.clouds, Cloud{Kind: kind, Len: 1})
			}
		}
		clouds := tail(a.clouds, c0)
		a.tunnels = append(a.tunnels, TunnelAnalysis{Start: i, End: j, Clouds: clouds, Pattern: classifyPattern(clouds)})
		i = j
	}
	if len(a.tunnels) == base {
		return nil
	}
	return tail(a.tunnels, base)
}

// strongAt reports whether a strong-flag segment covers hop k.
func (r *Result) strongAt(k int) bool {
	for i := range r.Segments {
		if s := &r.Segments[i]; s.Flag.Strong() && s.Start <= k && k <= s.End {
			return true
		}
	}
	return false
}

func classifyPattern(clouds []Cloud) Pattern {
	switch {
	case matchKinds(clouds, CloudSR):
		return PatternFullSR
	case matchKinds(clouds, CloudLDP):
		return PatternFullLDP
	case matchKinds(clouds, CloudSR, CloudLDP):
		return PatternSRLDP
	case matchKinds(clouds, CloudLDP, CloudSR):
		return PatternLDPSR
	case matchKinds(clouds, CloudLDP, CloudSR, CloudLDP):
		return PatternLDPSRLDP
	case matchKinds(clouds, CloudSR, CloudLDP, CloudSR):
		return PatternSRLDPSR
	default:
		return PatternOther
	}
}

func matchKinds(got []Cloud, want ...CloudKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Kind != want[i] {
			return false
		}
	}
	return true
}
