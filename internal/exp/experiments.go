package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/fingerprint"
	"arest/internal/longitudinal"
	"arest/internal/mpls"
	"arest/internal/probe"
	"arest/internal/survey"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports, for the paper-vs-measured
	// comparison in EXPERIMENTS.md.
	Paper string
	// Run renders the experiment from the campaign. ctx bounds experiments
	// that probe beyond the campaign (testbed, longitudinal); pure table
	// renderers ignore it.
	Run func(ctx context.Context, c *Campaign) string
}

// All lists every experiment, in paper order.
var All = []Experiment{
	{"fig1", "SR publications per year", "steady rise since 2014, peak in 2024", runFig1},
	{"table1", "Default vendor SRGB/SRLB ranges", "Cisco 16000-23999 / 15000-15999; Huawei 16000-47999 / >=48000; Arista 900000-965535 / 100000-116383", runTable1},
	{"fig5", "Operator survey (N=46)", "Cisco & Juniper dominate; resilience and MPLS simplification lead usage; 70% keep default SRGB, 67% SRLB", runFig5},
	{"fig7", "MPLS stack-size evolution 2015-2025", "stacks >=2 grow to ~20% (CAIDA) and ~10% (RIPE)", runFig7},
	{"table3", "Ground-truth validation on AS#46 (ESnet)", "CO ~95.6% and LSO ~4.4% of segments; 0% FP and 0% FN", runTable3},
	{"fig8", "Flag mix per AS", "LSO most frequent; strong CO in Alibaba/Bouygues/Bell/ESnet; CVR/LSVR/LVR rarer (fingerprint coverage)", runFig8},
	{"fig9", "Stack sizes: strong-SR vs MPLS/LSO contexts", "stacks >=2 ~20% more frequent in SR contexts; ESnet/Execulink unshrinking stacks", runFig9},
	{"fig10", "SR vs MPLS vs IP areas", ">50% SR traces in Microsoft/Bell/ESnet/Arelion; SR interfaces <=10% in 88% of ASes; Microsoft ~50%, ESnet ~33%", runFig10},
	{"fig11", "Interworking modes", "SR->LDP 95%, LDP->SR 2%, LDP-SR-LDP 2%, SR-LDP-SR 1%; 10% of tunnels interworking overall", runFig11},
	{"fig12", "LDP vs SR cloud sizes", "LDP clouds smaller; SR clouds larger", runFig12},
	{"fig13", "Tunnel visibility classes per AS", "explicit dominates (~76%); stubs mostly invisible/implicit", runFig13},
	{"fig14", "Fingerprinting source mix", "~45% of hops fingerprinted; 88% TTL-based, 12% SNMPv3", runFig14},
	{"fig15", "SNMPv3 vendor heatmap", "Cisco most common, then Juniper, Huawei; no Arista", runFig15},
	{"fig16", "Label range occurrences", "labels skewed to low values; few above 100000", runFig16},
	{"fig17", "Unique hops vs vantage points", "slow growth, no dominant VP", runFig17},
	{"table5", "Per-AS campaign statistics", "traces sent and IPs discovered per AS (scaled)", runTable5},
	{"headline", "Sec. 6.2 headline numbers", "SR in 75% of claimed ASes (60% via strong flags); SR evidence in 94% of unknown ASes; 23% of SR hops fingerprinted; 0.01% suffix matches", runHeadline},
	{"ext-longitudinal", "Extension: SR adoption over time", "future work in the paper: longitudinal tracking of SR-MPLS adoption", runLongitudinalExp},
	{"ext-srgb", "Extension: inferred SRGB blocks per AS", "extends Sec. 7: recover the provisioned label block (default vs custom) from observed node-SID labels", runSRGBInference},
	{"verdicts", "Sec. 6.3 per-AS deployment verdicts", "LSO-only ASes (Proximus) stay ambiguous; strong flags detected; co-occurrence or confirmation corroborates", runVerdicts},
	{"testbed", "Controlled-environment validation", "the paper validated AReST in a lab before the campaign; one canonical scenario per flag must yield that flag", runTestbed},
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fig1Publications digitizes Fig. 1 (publications mentioning "Segment
// Routing" per year across ACM DL, IEEEXplore, ScienceDirect).
var fig1Publications = []struct {
	Year  int
	Count int
}{
	{2014, 11}, {2015, 21}, {2016, 34}, {2017, 48}, {2018, 63}, {2019, 84},
	{2020, 97}, {2021, 108}, {2022, 117}, {2023, 128}, {2024, 142}, {2025, 39},
}

func runFig1(context.Context, *Campaign) string {
	t := eval.Table{Title: "Fig. 1 — SR publications per year", Headers: []string{"Year", "Publications"}}
	for _, p := range fig1Publications {
		t.AddRow(p.Year, p.Count)
	}
	return t.Render()
}

func runTable1(context.Context, *Campaign) string {
	t := eval.Table{Title: "Table 1 — Default vendor SR label ranges", Headers: []string{"Range", "Usage"}}
	t.AddRow(mpls.CiscoSRGB.String(), "Cisco default SRGB")
	t.AddRow(mpls.CiscoSRLB.String(), "Cisco default SRLB")
	t.AddRow(mpls.HuaweiSRGB.String(), "Huawei default SRGB")
	t.AddRow(mpls.HuaweiSRLB.String(), "Huawei base SRLB")
	t.AddRow(mpls.AristaSRGB.String(), "Arista default SRGB")
	t.AddRow(mpls.AristaSRLB.String(), "Arista default SRLB")
	return t.Render()
}

func runFig5(context.Context, *Campaign) string {
	rs := survey.Respondents()
	var b strings.Builder
	vt := eval.Table{Title: "Fig. 5a — SR-MPLS hardware vendors (share of respondents)",
		Headers: []string{"Vendor", "Share"}}
	shares := survey.VendorShares(rs)
	type kv struct {
		v mpls.Vendor
		s float64
	}
	var vs []kv
	for v, s := range shares {
		vs = append(vs, kv{v, s})
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].s > vs[j].s })
	for _, e := range vs {
		vt.AddRow(e.v.String(), e.s)
	}
	b.WriteString(vt.Render())

	ut := eval.Table{Title: "Fig. 5b — SR-MPLS usage", Headers: []string{"Usage", "Share"}}
	us := survey.UsageShares(rs)
	type ku struct {
		u survey.Usage
		s float64
	}
	var uvs []ku
	for u, s := range us {
		uvs = append(uvs, ku{u, s})
	}
	sort.Slice(uvs, func(i, j int) bool { return uvs[i].s > uvs[j].s })
	for _, e := range uvs {
		ut.AddRow(e.u.String(), e.s)
	}
	b.WriteString(ut.Render())

	srgb, srlb := survey.DefaultRangeRates(rs)
	fmt.Fprintf(&b, "default SRGB kept: %.0f%%   default SRLB kept: %.0f%%\n", srgb*100, srlb*100)
	return b.String()
}

func runFig7(_ context.Context, c *Campaign) string {
	var b strings.Builder
	for _, p := range []longitudinal.Platform{longitudinal.CAIDA, longitudinal.RIPEAtlas} {
		t := eval.Table{Title: fmt.Sprintf("Fig. 7 — MPLS stack sizes over time (%s)", p),
			Headers: []string{"Sample", "depth=1", "depth=2", "depth>=3"}}
		dists := longitudinal.Measure(longitudinal.Generate(p, 2000, c.Cfg.Seed))
		for i, d := range dists {
			if i%4 != 0 && i != len(dists)-1 {
				continue // yearly rows keep the table readable
			}
			t.AddRow(d.Date, d.Depth1, d.Depth2, d.Depth3)
		}
		b.WriteString(t.Render())
	}
	return b.String()
}

func runTable3(_ context.Context, c *Campaign) string {
	r, ok := c.ByID(46)
	if !ok {
		return "AS#46 (ESnet) not in campaign\n"
	}
	gt := r.GroundTruth()
	counts := r.Agg.Flags
	total := 0
	for _, n := range counts {
		total += n
	}
	t := eval.Table{Title: "Table 3 — AReST validation on AS#46 (ESnet)",
		Headers: []string{"Flag", "Segments", "Share", "TP", "FP rate", "FN rate"}}
	for _, f := range core.AllFlags {
		n := counts[f]
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total)
		}
		cm := gt[f]
		if n == 0 && cm.FN == 0 {
			t.AddRow(f.String(), 0, 0.0, "-", "-", "-")
			continue
		}
		t.AddRow(f.String(), n, share, cm.TP, cm.FPRate(), cm.FNRate())
	}
	return t.Render()
}

func asLabel(r *ASResult) string {
	conf := ""
	switch {
	case r.Record.CiscoConfirmed && r.Record.SurveyConfirm:
		conf = " [both]"
	case r.Record.CiscoConfirmed:
		conf = " [cisco]"
	case r.Record.SurveyConfirm:
		conf = " [survey]"
	}
	return fmt.Sprintf("#%d %s (%s)%s", r.Record.ID, r.Record.Name, r.Record.Category, conf)
}

func runFig8(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Fig. 8 — Proportion of SR segments per AReST flag",
		Headers: []string{"AS", "CVR", "CO", "LSVR", "LVR", "LSO", "segments"}}
	for _, r := range c.ASes {
		sh := r.FlagShares()
		total := 0
		for _, n := range r.Agg.Flags {
			total += n
		}
		t.AddRow(asLabel(r), sh[core.FlagCVR], sh[core.FlagCO], sh[core.FlagLSVR],
			sh[core.FlagLVR], sh[core.FlagLSO], total)
	}
	return t.Render()
}

func runFig9(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Fig. 9 — LSE stack sizes: strong-SR vs MPLS/LSO contexts",
		Headers: []string{"AS", "SR d=1", "SR d>=2", "MPLS d=1", "MPLS d>=2"}}
	for _, r := range c.ASes {
		row := func(d []int) (one, deep float64) {
			tot := 0
			for _, n := range d {
				tot += n
			}
			if tot == 0 {
				return 0, 0
			}
			for depth, n := range d {
				if depth == 1 {
					one += float64(n)
				} else {
					deep += float64(n)
				}
			}
			return one / float64(tot), deep / float64(tot)
		}
		s1, s2 := row(r.Agg.StackStrong)
		m1, m2 := row(r.Agg.StackOther)
		t.AddRow(asLabel(r), s1, s2, m1, m2)
	}
	return t.Render()
}

func runFig10(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Fig. 10 — SR / MPLS / IP areas per AS",
		Headers: []string{"AS", "trace%SR", "trace%MPLS", "trace%IP", "ifaces SR", "ifaces MPLS", "ifaces IP"}}
	for _, r := range c.ASes {
		ts := r.AreaTraceShares()
		ic := r.AreaInterfaceCounts()
		t.AddRow(asLabel(r), ts[core.AreaSR], ts[core.AreaMPLS], ts[core.AreaIP],
			ic[core.AreaSR], ic[core.AreaMPLS], ic[core.AreaIP])
	}
	return t.Render()
}

func runFig11(_ context.Context, c *Campaign) string {
	patterns := c.MergedAgg().Patterns
	full := patterns[core.PatternFullSR]
	inter := 0
	for p, n := range patterns {
		if p != core.PatternFullSR && p != core.PatternFullLDP && p != core.PatternOther {
			inter += n
		}
	}
	var b strings.Builder
	t := eval.Table{Title: "Fig. 11 — Interworking modes (share of interworking tunnels)",
		Headers: []string{"Mode", "Count", "Share"}}
	for _, p := range []core.Pattern{core.PatternSRLDP, core.PatternLDPSR, core.PatternLDPSRLDP, core.PatternSRLDPSR} {
		share := 0.0
		if inter > 0 {
			share = float64(patterns[p]) / float64(inter)
		}
		t.AddRow(string(p), patterns[p], share)
	}
	b.WriteString(t.Render())
	if full+inter > 0 {
		fmt.Fprintf(&b, "full-SR tunnels: %d (%.0f%%)   interworking: %d (%.0f%%)\n",
			full, 100*float64(full)/float64(full+inter), inter, 100*float64(inter)/float64(full+inter))
	}
	return b.String()
}

func runFig12(_ context.Context, c *Campaign) string {
	merged := c.MergedAgg()
	// stats reads a size histogram: its count, mean and median size.
	stats := func(hist []int) (n int, mean float64, med int) {
		tot := 0
		for size, k := range hist {
			n += k
			tot += size * k
		}
		if n == 0 {
			return 0, 0, 0
		}
		for seen := hist[0]; seen <= n/2; seen += hist[med] {
			med++
		}
		return n, float64(tot) / float64(n), med
	}
	t := eval.Table{Title: "Fig. 12 — LDP vs SR cloud sizes in interworking tunnels",
		Headers: []string{"Cloud", "N", "Mean hops", "Median hops"}}
	n, m, md := stats(merged.CloudLDP)
	t.AddRow("LDP", n, m, md)
	n, m, md = stats(merged.CloudSR)
	t.AddRow("SR", n, m, md)
	return t.Render()
}

func runFig13(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Fig. 13 — MPLS tunnel visibility classes per AS",
		Headers: []string{"AS", "explicit", "implicit", "opaque", "invisible", "paths w/ explicit"}}
	for _, r := range c.ASes {
		counts := r.Agg.TunnelTypes
		total := 0
		for _, n := range counts {
			total += n
		}
		share := func(tt probe.TunnelType) float64 {
			if total == 0 {
				return 0
			}
			return float64(counts[tt]) / float64(total)
		}
		t.AddRow(asLabel(r), share(probe.TunnelExplicit), share(probe.TunnelImplicit),
			share(probe.TunnelOpaque), share(probe.TunnelInvisible), r.ExplicitPathShare())
	}
	return t.Render()
}

func runFig14(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Fig. 14 — Fingerprinting source per AS",
		Headers: []string{"AS", "SNMPv3", "TTL", "none", "coverage"}}
	for _, r := range c.ASes {
		src := r.FingerprintSourceCounts()
		total := src[fingerprint.SourceSNMP] + src[fingerprint.SourceTTL] + src[fingerprint.SourceNone]
		cov := 0.0
		if total > 0 {
			cov = float64(src[fingerprint.SourceSNMP]+src[fingerprint.SourceTTL]) / float64(total)
		}
		t.AddRow(asLabel(r), src[fingerprint.SourceSNMP], src[fingerprint.SourceTTL],
			src[fingerprint.SourceNone], cov)
	}
	return t.Render()
}

func runFig15(_ context.Context, c *Campaign) string {
	vendors := []mpls.Vendor{mpls.VendorCisco, mpls.VendorJuniper, mpls.VendorHuawei,
		mpls.VendorNokia, mpls.VendorLinux}
	headers := []string{"AS"}
	for _, v := range vendors {
		headers = append(headers, v.String())
	}
	t := eval.Table{Title: "Fig. 15 — SNMPv3-identified vendors per AS", Headers: headers}
	for _, r := range c.ASes {
		counts := r.VendorCounts()
		row := []interface{}{asLabel(r)}
		for _, v := range vendors {
			row = append(row, counts[v])
		}
		t.AddRow(row...)
	}
	return t.Render()
}

func runFig16(_ context.Context, c *Campaign) string {
	headers := []string{"AS"}
	for _, b := range LabelBuckets {
		headers = append(headers, b.Name)
	}
	t := eval.Table{Title: "Fig. 16 — MPLS label range occurrences per AS", Headers: headers}
	for _, r := range c.ASes {
		row := []interface{}{asLabel(r)}
		for _, n := range r.Agg.Labels {
			row = append(row, n)
		}
		t.AddRow(row...)
	}
	return t.Render()
}

func runFig17(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Fig. 17 — Unique hops discovered as VPs are added",
		Headers: []string{"AS", "per-VP cumulative share"}}
	for _, r := range c.ASes {
		acc := r.VPAccumulation()
		if len(acc) == 0 || acc[len(acc)-1] == 0 {
			continue
		}
		final := float64(acc[len(acc)-1])
		parts := make([]string, len(acc))
		for i, n := range acc {
			parts[i] = fmt.Sprintf("%.2f", float64(n)/final)
		}
		t.AddRow(asLabel(r), strings.Join(parts, " "))
	}
	return t.Render()
}

func runTable5(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Table 5 — Per-AS campaign statistics (scaled)",
		Headers: []string{"AS", "ASN", "Type", "Traces sent", "IPs discovered", "Cisco", "Survey"}}
	for _, r := range c.ASes {
		t.AddRow(fmt.Sprintf("#%d %s", r.Record.ID, r.Record.Name), r.Record.ASN,
			r.Record.Category.String(), r.TracesSent, r.DistinctIPs(),
			r.Record.CiscoConfirmed, r.Record.SurveyConfirm)
	}
	return t.Render()
}

// Headline computes the Sec. 6.2 summary statistics.
type Headline struct {
	ClaimedASes          int
	ClaimedDetected      int // any flag
	ClaimedStrong        int // strong flags
	UnknownASes          int
	UnknownDetected      int
	FingerprintedSRShare float64 // share of strong-SR hops with a vendor
	SuffixMatchShare     float64 // suffix-based sequence matches
}

// ComputeHeadline aggregates the campaign-wide headline numbers.
func ComputeHeadline(c *Campaign) Headline {
	var h Headline
	srHops, srHopsFP := 0, 0
	seqSegs, seqSuffix := 0, 0
	for _, r := range c.ASes {
		if r.Record.Claimed() {
			h.ClaimedASes++
			if r.HasAnySR() {
				h.ClaimedDetected++
			}
			if r.HasStrongSR() {
				h.ClaimedStrong++
			}
		} else {
			h.UnknownASes++
			if r.HasAnySR() {
				h.UnknownDetected++
			}
		}
		seqSegs += r.Agg.Flags[core.FlagCVR] + r.Agg.Flags[core.FlagCO]
		seqSuffix += r.Agg.SeqSuffix
		srHops += r.Agg.StrongHops
		srHopsFP += r.Agg.StrongHopsFP
	}
	if srHops > 0 {
		h.FingerprintedSRShare = float64(srHopsFP) / float64(srHops)
	}
	if seqSegs > 0 {
		h.SuffixMatchShare = float64(seqSuffix) / float64(seqSegs)
	}
	return h
}

func runHeadline(_ context.Context, c *Campaign) string {
	h := ComputeHeadline(c)
	var b strings.Builder
	fmt.Fprintf(&b, "## Sec. 6.2 — headline numbers\n")
	pct := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	fmt.Fprintf(&b, "claimed ASes analyzed: %d; SR detected in %d (%.0f%%), via strong flags in %d (%.0f%%)\n",
		h.ClaimedASes, h.ClaimedDetected, pct(h.ClaimedDetected, h.ClaimedASes),
		h.ClaimedStrong, pct(h.ClaimedStrong, h.ClaimedASes))
	fmt.Fprintf(&b, "unknown ASes analyzed: %d; SR evidence in %d (%.0f%%)\n",
		h.UnknownASes, h.UnknownDetected, pct(h.UnknownDetected, h.UnknownASes))
	fmt.Fprintf(&b, "strong-SR hops fingerprinted: %.1f%%\n", h.FingerprintedSRShare*100)
	fmt.Fprintf(&b, "suffix-based sequence matches: %.2f%%\n", h.SuffixMatchShare*100)
	return b.String()
}

// runSRGBInference applies the SRGB-inference extension to every AS with
// enough sequence-flag evidence.
func runSRGBInference(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Extension — inferred SRGB blocks",
		Headers: []string{"AS", "Observed", "Inferred block", "Match", "Samples"}}
	for _, r := range c.ASes {
		est, ok := r.InferSRGB()
		if !ok {
			continue
		}
		match := "custom"
		if est.Vendor != mpls.VendorUnknown {
			match = est.Vendor.String() + " default"
		}
		t.AddRow(asLabel(r), est.Observed.String(), est.Block.String(), match, est.Samples)
	}
	return t.Render()
}

// runVerdicts renders the per-AS interpretive verdicts of Sec. 6.3.
func runVerdicts(_ context.Context, c *Campaign) string {
	t := eval.Table{Title: "Sec. 6.3 — per-AS deployment verdicts",
		Headers: []string{"AS", "Verdict", "Strong segs", "LSO segs"}}
	counts := map[core.Verdict]int{}
	for _, r := range c.ASes {
		v := r.Verdict()
		counts[v]++
		fc := r.Agg.Flags
		strong := fc[core.FlagCVR] + fc[core.FlagCO] + fc[core.FlagLSVR] + fc[core.FlagLVR]
		t.AddRow(asLabel(r), v.String(), strong, fc[core.FlagLSO])
	}
	out := t.Render()
	out += fmt.Sprintf("summary: %d corroborated, %d detected, %d ambiguous, %d no-evidence\n",
		counts[core.VerdictCorroborated], counts[core.VerdictDetected],
		counts[core.VerdictAmbiguous], counts[core.VerdictNoEvidence])
	return out
}
