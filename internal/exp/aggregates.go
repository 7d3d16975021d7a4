// Aggregate queries for one AS: every table and figure row the experiments
// consume that is not a field of the folded Agg (agg.go) itself. These are
// pure reads — the per-trace work already happened inside the Detect fold
// — and none of them touch the retained Results, so they are identical in
// compact and retained mode.
package exp

import (
	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/fingerprint"
	"arest/internal/mpls"
)

// FlagShares normalizes the per-flag segment tally to proportions (Fig. 8).
func (r *ASResult) FlagShares() [core.FlagLSO + 1]float64 {
	var out [core.FlagLSO + 1]float64
	total := 0
	for _, n := range r.Agg.Flags {
		total += n
	}
	if total == 0 {
		return out
	}
	for f, n := range r.Agg.Flags {
		out[f] = float64(n) / float64(total)
	}
	return out
}

// HasStrongSR reports whether the AS shows any strong SR evidence.
func (r *ASResult) HasStrongSR() bool {
	for f, n := range r.Agg.Flags {
		if core.Flag(f).Strong() && n > 0 {
			return true
		}
	}
	return false
}

// HasAnySR reports whether any flag (including LSO) fired.
func (r *ASResult) HasAnySR() bool {
	for _, n := range r.Agg.Flags {
		if n > 0 {
			return true
		}
	}
	return false
}

// AreaTraceShares returns the fraction of the AS's paths touching each
// area (Fig. 10a). A path can contribute to several areas.
func (r *ASResult) AreaTraceShares() [core.AreaSR + 1]float64 {
	var out [core.AreaSR + 1]float64
	if r.Agg.PathsInAS == 0 {
		return out
	}
	for a, n := range r.Agg.AreaTraces {
		out[a] = float64(n) / float64(r.Agg.PathsInAS)
	}
	return out
}

// AreaInterfaceCounts returns the number of distinct interfaces attributed
// to each area (Fig. 10b); an interface seen in several areas counts in
// the strongest one (SR > MPLS > IP) — the fold keeps the running maximum
// per address.
func (r *ASResult) AreaInterfaceCounts() [core.AreaSR + 1]int {
	var out [core.AreaSR + 1]int
	for _, ifc := range r.Agg.Ifaces {
		out[ifc.Area]++
	}
	return out
}

// DistinctIPs counts distinct interfaces observed inside the AS.
func (r *ASResult) DistinctIPs() int {
	return len(r.Agg.Ifaces)
}

// ExplicitPathShare is the fraction of paths showing at least one explicit
// tunnel (Fig. 13b).
func (r *ASResult) ExplicitPathShare() float64 {
	if r.Agg.Traces == 0 {
		return 0
	}
	return float64(r.Agg.ExplicitPaths) / float64(r.Agg.Traces)
}

// FingerprintSourceCounts returns how many of the AS's observed interfaces
// were identified per technique (Fig. 14).
func (r *ASResult) FingerprintSourceCounts() map[fingerprint.Source]int {
	out := map[fingerprint.Source]int{}
	for _, ifc := range r.Agg.Ifaces {
		out[ifc.Source]++
	}
	return out
}

// VendorCounts returns per-vendor device counts identified through SNMPv3
// (Fig. 15's heatmap row for this AS).
func (r *ASResult) VendorCounts() map[mpls.Vendor]int {
	out := map[mpls.Vendor]int{}
	for _, ifc := range r.Agg.Ifaces {
		if ifc.Source != fingerprint.SourceSNMP {
			continue
		}
		out[ifc.Vendor]++
	}
	return out
}

// LabelBuckets are the Fig. 16 label-range rows. It is an array so
// Agg.Labels can be an array of its length.
var LabelBuckets = [...]struct {
	Name string
	R    mpls.LabelRange
}{
	{"0-15999", mpls.LabelRange{Lo: 0, Hi: 15999}},
	{"16000-23999", mpls.LabelRange{Lo: 16000, Hi: 23999}},
	{"24000-47999", mpls.LabelRange{Lo: 24000, Hi: 47999}},
	{"48000-99999", mpls.LabelRange{Lo: 48000, Hi: 99999}},
	{"100000-299999", mpls.LabelRange{Lo: 100000, Hi: 299999}},
	{"300000-899999", mpls.LabelRange{Lo: 300000, Hi: 899999}},
	{"900000-1048575", mpls.LabelRange{Lo: 900000, Hi: 1048575}},
}

// VPAccumulation returns the cumulative count of unique hop addresses as
// vantage points are added in order (Fig. 17), reconstructed from each
// responder's first-observing VP index.
func (r *ASResult) VPAccumulation() []int {
	if r.Agg.NumVPs == 0 {
		return nil
	}
	out := make([]int, r.Agg.NumVPs)
	for _, v := range r.Agg.FirstVP {
		out[v]++
	}
	for i := 1; i < len(out); i++ {
		out[i] += out[i-1]
	}
	return out
}

// GroundTruth scores AReST's per-flag segment inferences against the
// simulator's ground truth (Table 3): a segment is a true positive when
// every hop belongs to an SR-enabled router, a false positive otherwise.
// False negatives count SR interfaces that were observed with labels in
// transit but never covered by any flag, attributed to the catch-all CO
// row (the flag that should have caught sequences). The truth set is the
// archived SREnabled export, so the score is computable offline from a
// replayed archive.
func (r *ASResult) GroundTruth() [core.FlagLSO + 1]eval.Confusion {
	out := r.Agg.Confusion
	for addr, ifc := range r.Agg.Ifaces {
		if ifc.LabeledTransit && r.SREnabled[addr] && !ifc.Flagged {
			out[core.FlagCO].FN++
		}
	}
	return out
}

// Verdict applies the Sec. 6.3 interpretive framework to the AS: strong
// flags, LSO corroboration, and external confirmation combine into one
// deployment verdict.
func (r *ASResult) Verdict() core.Verdict {
	strong := 0
	for f, n := range r.Agg.Flags {
		if core.Flag(f).Strong() {
			strong += n
		}
	}
	return core.Judge(strong, r.Agg.Flags[core.FlagLSO], r.Record.Claimed())
}

// InferSRGB estimates the AS's configured SRGB from the labels of
// sequence-flagged segments the fold collected (see core.InferSRGB).
func (r *ASResult) InferSRGB() (core.SRGBEstimate, bool) {
	return core.InferSRGB(r.Agg.SeqLabels)
}
