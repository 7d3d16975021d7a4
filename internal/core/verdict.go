package core

// Verdict encodes the interpretive framework of Sec. 6.3: how confidently
// a set of AReST results supports the claim "this AS deploys SR-MPLS".
type Verdict int

const (
	// VerdictNoEvidence: no flags fired at all.
	VerdictNoEvidence Verdict = iota
	// VerdictAmbiguous: only LSO fired — deep stacks that classic MPLS
	// (VPNs, RSVP-TE, entropy labels) can equally produce. The paper's
	// Proximus case: "needs more cautious interpretation".
	VerdictAmbiguous
	// VerdictDetected: strong flags (CVR/CO/LSVR/LVR) fired.
	VerdictDetected
	// VerdictCorroborated: strong flags fired in an AS whose deployment is
	// also externally confirmed (survey or vendor), or where LSO co-occurs
	// with strong flags (the Google/Amazon/ESnet situation, where LSO
	// segments gain strength from surrounding evidence).
	VerdictCorroborated
)

func (v Verdict) String() string {
	switch v {
	case VerdictNoEvidence:
		return "no-evidence"
	case VerdictAmbiguous:
		return "ambiguous"
	case VerdictDetected:
		return "detected"
	case VerdictCorroborated:
		return "corroborated"
	default:
		return "?"
	}
}

// Judge applies the interpretive framework to an AS's segment counts:
// strong is the number of strong-flag (CVR/CO/LSVR/LVR) segments, lso the
// number of LSO segments. externallyConfirmed marks ASes whose deployment
// is claimed through the survey or vendor channels.
func Judge(strong, lso int, externallyConfirmed bool) Verdict {
	switch {
	case strong > 0 && (externallyConfirmed || lso > 0):
		return VerdictCorroborated
	case strong > 0:
		return VerdictDetected
	case lso > 0:
		return VerdictAmbiguous
	default:
		return VerdictNoEvidence
	}
}
