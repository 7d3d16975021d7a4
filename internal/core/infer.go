package core

import (
	"sort"

	"arest/internal/mpls"
)

// SRGBEstimate is the outcome of InferSRGB.
type SRGBEstimate struct {
	// Observed is the tight range spanned by the sampled node-SID labels.
	Observed mpls.LabelRange
	// Block is the inferred configured block: a known vendor default when
	// the observations fit one, otherwise Observed rounded out to
	// thousand-aligned boundaries.
	Block mpls.LabelRange
	// Vendor names the matched default block (VendorUnknown for custom).
	Vendor mpls.Vendor
	// Samples is the number of distinct labels the estimate rests on.
	Samples int
}

// minSRGBSamples is the smallest evidence base InferSRGB accepts.
const minSRGBSamples = 3

// InferSRGB estimates a domain's configured SRGB from AReST results: the
// active labels of sequence-flagged (CVR/CO) segments are node-SID labels,
// which by construction all fall inside the (domain-wide, RFC 8402) SRGB.
// labelSet holds those labels, as the Detect fold collects them. This
// extends the paper's characterization: beyond *that* SR is deployed, it
// recovers *how* the label space was provisioned — in particular whether
// the operator kept a vendor default (the survey's 70%) or customized it.
func InferSRGB(labelSet map[uint32]bool) (SRGBEstimate, bool) {
	if len(labelSet) < minSRGBSamples {
		return SRGBEstimate{}, false
	}
	labels := make([]uint32, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	est := SRGBEstimate{
		Observed: mpls.LabelRange{Lo: labels[0], Hi: labels[len(labels)-1]},
		Samples:  len(labels),
		Vendor:   mpls.VendorUnknown,
	}

	// Prefer a known vendor default that contains every observation.
	defaults := []struct {
		v mpls.Vendor
		r mpls.LabelRange
	}{
		{mpls.VendorCisco, mpls.CiscoSRGB}, // also the common interop block
		{mpls.VendorHuawei, mpls.HuaweiSRGB},
		{mpls.VendorNokia, mpls.NokiaSRGB},
		{mpls.VendorArista, mpls.AristaSRGB},
	}
	for _, d := range defaults {
		if d.r.Contains(est.Observed.Lo) && d.r.Contains(est.Observed.Hi) {
			est.Block = d.r
			est.Vendor = d.v
			return est, true
		}
	}
	// Custom block: round out to thousand-aligned boundaries, the way
	// operators carve label space.
	lo := est.Observed.Lo / 1000 * 1000
	hi := (est.Observed.Hi/1000 + 1) * 1000
	if hi > mpls.MaxLabel {
		hi = mpls.MaxLabel + 1
	}
	est.Block = mpls.LabelRange{Lo: lo, Hi: hi - 1}
	return est, true
}
