package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"arest/internal/fingerprint"
	"arest/internal/mpls"
)

// rng feeds the fixture builders: seeded, so the generated hop addresses
// and labels are identical on every run.
var rng = rand.New(rand.NewSource(42))

// mkHop builds a hop carrying the given label stack (top first) with an
// optional vendor annotation.
func mkHop(vendor mpls.Vendor, labels ...uint32) Hop {
	h := Hop{Addr: netip.MustParseAddr(fmt.Sprintf("10.0.%d.%d", rng.Intn(200), rng.Intn(250)+1)), Vendor: vendor}
	for _, l := range labels {
		h.Stack = append(h.Stack, mpls.LSE{Label: l, TTL: 1})
	}
	if vendor != mpls.VendorUnknown {
		h.Source = fingerprint.SourceTTL
	}
	return h
}

func ipHop() Hop { return mkHop(mpls.VendorUnknown) }

func pathOf(hops ...Hop) *Path {
	return &Path{VP: netip.MustParseAddr("172.16.0.1"), Dst: netip.MustParseAddr("100.0.0.1"), Hops: hops}
}

func analyze(p *Path) *Result { return NewDetector().Analyze(p) }

func TestCVRFlag(t *testing.T) {
	// Fig. 6 green path: 16,005 across three hops, one fingerprinted Cisco.
	p := pathOf(
		ipHop(), // PE1, the source: never part of the segment
		mkHop(mpls.VendorCisco, 16005),
		mkHop(mpls.VendorUnknown, 16005),
		mkHop(mpls.VendorUnknown, 16005),
		ipHop(),
	)
	res := analyze(p)
	if len(res.Segments) != 1 {
		t.Fatalf("segments = %+v", res.Segments)
	}
	s := res.Segments[0]
	if s.Flag != FlagCVR || s.Start != 1 || s.End != 3 || s.Label != 16005 {
		t.Errorf("segment = %+v", s)
	}
	if s.SuffixMatch {
		t.Error("strict equality reported as suffix match")
	}
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestCOFlag(t *testing.T) {
	// Fig. 6 gray path: 17,005 consecutive, nothing fingerprinted.
	p := pathOf(
		ipHop(),
		mkHop(mpls.VendorUnknown, 17005),
		mkHop(mpls.VendorUnknown, 17005),
		mkHop(mpls.VendorUnknown, 17005),
	)
	res := analyze(p)
	if len(res.Segments) != 1 || res.Segments[0].Flag != FlagCO {
		t.Fatalf("segments = %+v", res.Segments)
	}
}

func TestCVRNeedsVendorRangeNotJustFingerprint(t *testing.T) {
	// Fingerprinted hops whose label lies outside the vendor SR range must
	// downgrade to CO.
	p := pathOf(
		mkHop(mpls.VendorCisco, 500000),
		mkHop(mpls.VendorCisco, 500000),
	)
	res := analyze(p)
	if len(res.Segments) != 1 || res.Segments[0].Flag != FlagCO {
		t.Fatalf("segments = %+v", res.Segments)
	}
}

func TestCiscoHuaweiIntersectionRestriction(t *testing.T) {
	// Label 30,000 is inside the Huawei SRGB but outside the Cisco∩Huawei
	// intersection. TTL-ambiguous hops must not raise CVR for it; an exact
	// SNMP identification must.
	seq := func(v mpls.Vendor) *Path {
		return pathOf(mkHop(v, 30000), mkHop(v, 30000))
	}
	if res := analyze(seq(mpls.VendorCiscoHuawei)); res.Segments[0].Flag != FlagCO {
		t.Errorf("ambiguous fingerprint: flag = %v, want CO", res.Segments[0].Flag)
	}
	if res := analyze(seq(mpls.VendorHuawei)); res.Segments[0].Flag != FlagCVR {
		t.Errorf("exact Huawei fingerprint: flag = %v, want CVR", res.Segments[0].Flag)
	}
	// Inside the intersection, the ambiguity class is sufficient.
	if res := analyze(pathOf(mkHop(mpls.VendorCiscoHuawei, 16005), mkHop(mpls.VendorUnknown, 16005))); res.Segments[0].Flag != FlagCVR {
		t.Errorf("intersection label: flag = %v, want CVR", res.Segments[0].Flag)
	}
}

func TestSuffixMatching(t *testing.T) {
	// Footnote 4: 16,005 → 13,005 still forms a sequence (differing SRGBs).
	p := pathOf(
		mkHop(mpls.VendorCisco, 16005),
		mkHop(mpls.VendorUnknown, 13005),
		mkHop(mpls.VendorUnknown, 13005),
	)
	res := analyze(p)
	if len(res.Segments) != 1 {
		t.Fatalf("segments = %+v", res.Segments)
	}
	s := res.Segments[0]
	if s.Flag != FlagCVR || !s.SuffixMatch || s.Len() != 3 {
		t.Errorf("segment = %+v", s)
	}

	d := NewDetector()
	d.SuffixMatching = false
	res = d.Analyze(p)
	// Without suffix matching: 16005 alone (Cisco, in range → LVR) and a
	// 13005,13005 CO pair.
	byFlag := res.SegmentsByFlag()
	if len(byFlag[FlagCO]) != 1 || len(byFlag[FlagLVR]) != 1 {
		t.Errorf("without suffix matching: %+v", res.Segments)
	}
}

func TestSuffixMatchRule(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{16005, 13005, true},
		{16005, 16005, false}, // equality is not a *suffix* match
		{16005, 13006, false},
		{16005, 17005, true},
		{105, 1105, true},
		{16005, 16006, false},
	}
	for _, c := range cases {
		if got := suffixMatch(c.a, c.b); got != c.want {
			t.Errorf("suffixMatch(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLSVRFlag(t *testing.T) {
	// Fig. 6 purple path: P7 Cisco with stack [20,000; 37,000]; the next
	// hop (classic MPLS, single foreign label) must stay out.
	p := pathOf(
		ipHop(),
		mkHop(mpls.VendorCisco, 20000, 37000),
		mkHop(mpls.VendorUnknown, 300123),
	)
	res := analyze(p)
	if len(res.Segments) != 1 {
		t.Fatalf("segments = %+v", res.Segments)
	}
	s := res.Segments[0]
	if s.Flag != FlagLSVR || s.Start != 1 || s.End != 1 {
		t.Errorf("segment = %+v", s)
	}
	if got := s.StackDepths[0]; got != 2 {
		t.Errorf("stack depth = %d", got)
	}
}

func TestLVRFlag(t *testing.T) {
	p := pathOf(mkHop(mpls.VendorCisco, 16009), ipHop())
	res := analyze(p)
	if len(res.Segments) != 1 || res.Segments[0].Flag != FlagLVR {
		t.Fatalf("segments = %+v", res.Segments)
	}
}

func TestLSOFlag(t *testing.T) {
	p := pathOf(mkHop(mpls.VendorUnknown, 700001, 700002), ipHop())
	res := analyze(p)
	if len(res.Segments) != 1 || res.Segments[0].Flag != FlagLSO {
		t.Fatalf("segments = %+v", res.Segments)
	}
	if res.Segments[0].Flag.Stars() != 1 {
		t.Errorf("LSO stars = %d", res.Segments[0].Flag.Stars())
	}
}

func TestClassicMPLSUnflagged(t *testing.T) {
	// Distinct single labels from a dynamic pool: classic LDP, no flags.
	p := pathOf(
		mkHop(mpls.VendorUnknown, 301111),
		mkHop(mpls.VendorUnknown, 405222),
		mkHop(mpls.VendorUnknown, 550333),
	)
	res := analyze(p)
	if len(res.Segments) != 0 {
		t.Fatalf("segments = %+v", res.Segments)
	}
	for i, area := range res.Areas {
		if area != AreaMPLS {
			t.Errorf("hop %d area = %v, want mpls", i, area)
		}
	}
}

func TestSequencePrecedesStackFlags(t *testing.T) {
	// Hops in a CVR run with deep stacks must not additionally raise LSVR.
	p := pathOf(
		mkHop(mpls.VendorCisco, 16005, 16008),
		mkHop(mpls.VendorUnknown, 16005, 16008),
	)
	res := analyze(p)
	if len(res.Segments) != 1 || res.Segments[0].Flag != FlagCVR {
		t.Fatalf("segments = %+v", res.Segments)
	}
	if d := res.Segments[0].StackDepths; len(d) != 2 || d[0] != 2 || d[1] != 2 {
		t.Errorf("stack depths = %v", d)
	}
}

func TestMinRunOfTwo(t *testing.T) {
	// A single 16005 hop cannot raise CO/CVR — it becomes LVR (vendor) or
	// nothing (no vendor).
	res := analyze(pathOf(mkHop(mpls.VendorUnknown, 16005), ipHop()))
	if len(res.Segments) != 0 {
		t.Fatalf("segments = %+v", res.Segments)
	}
	res = analyze(pathOf(mkHop(mpls.VendorUnknown, 16005), mkHop(mpls.VendorUnknown, 16005)))
	if len(res.Segments) != 1 || res.Segments[0].Flag != FlagCO {
		t.Fatalf("segments = %+v", res.Segments)
	}
}

func TestGapBreaksSequence(t *testing.T) {
	// An unlabeled hop between identical labels breaks the run.
	p := pathOf(
		mkHop(mpls.VendorUnknown, 16005),
		ipHop(),
		mkHop(mpls.VendorUnknown, 16005),
	)
	res := analyze(p)
	for _, s := range res.Segments {
		if s.Flag == FlagCO || s.Flag == FlagCVR {
			t.Errorf("sequence flag across a gap: %+v", s)
		}
	}
}

func TestAreas(t *testing.T) {
	p := pathOf(
		ipHop(),                               // ip
		mkHop(mpls.VendorCisco, 16005),        // sr (CVR)
		mkHop(mpls.VendorUnknown, 16005),      // sr
		mkHop(mpls.VendorUnknown, 404040),     // mpls (classic)
		mkHop(mpls.VendorUnknown, 1111, 2222), // mpls (LSO is not strong)
		ipHop(),                               // ip
	)
	res := analyze(p)
	want := []Area{AreaIP, AreaSR, AreaSR, AreaMPLS, AreaMPLS, AreaIP}
	for i, w := range want {
		if res.Areas[i] != w {
			t.Errorf("hop %d area = %v, want %v", i, res.Areas[i], w)
		}
	}
	if !res.HasSR() {
		t.Error("HasSR = false with a CVR segment")
	}
}

func TestRevealedAndImplicitHopsAreMPLSArea(t *testing.T) {
	rev := ipHop()
	rev.Revealed = true
	imp := ipHop()
	imp.QTTL = 3
	res := analyze(pathOf(rev, imp, ipHop()))
	if res.Areas[0] != AreaMPLS || res.Areas[1] != AreaMPLS || res.Areas[2] != AreaIP {
		t.Errorf("areas = %v", res.Areas)
	}
}

func TestInterworkingPatterns(t *testing.T) {
	sr := func() Hop { return mkHop(mpls.VendorCisco, 16005) }
	ldp := func() Hop { return mkHop(mpls.VendorUnknown, uint32(300000+rng.Intn(10000)*7)) }

	cases := []struct {
		name string
		hops []Hop
		want Pattern
	}{
		{"full-sr", []Hop{sr(), sr(), sr()}, PatternFullSR},
		{"full-ldp", []Hop{ldp(), ldp(), ldp()}, PatternFullLDP},
		{"sr-ldp", []Hop{sr(), sr(), ldp(), ldp()}, PatternSRLDP},
		{"ldp-sr", []Hop{ldp(), ldp(), sr(), sr()}, PatternLDPSR},
		{"ldp-sr-ldp", []Hop{ldp(), ldp(), sr(), sr(), ldp()}, PatternLDPSRLDP},
		{"sr-ldp-sr", []Hop{sr(), sr(), ldp(), sr(), sr()}, PatternSRLDPSR},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			hops := append([]Hop{ipHop()}, c.hops...)
			hops = append(hops, ipHop())
			res := analyze(pathOf(hops...))
			tuns := res.Tunnels()
			if len(tuns) != 1 {
				t.Fatalf("tunnels = %+v", tuns)
			}
			if tuns[0].Pattern != c.want {
				t.Errorf("pattern = %v, want %v (clouds %+v)", tuns[0].Pattern, c.want, tuns[0].Clouds)
			}
			wantInterwork := c.want != PatternFullSR && c.want != PatternFullLDP
			if tuns[0].Interworking() != wantInterwork {
				t.Errorf("Interworking() = %v", tuns[0].Interworking())
			}
		})
	}
}

func TestInterworkingCloudSizes(t *testing.T) {
	p := pathOf(
		mkHop(mpls.VendorCisco, 16005),
		mkHop(mpls.VendorUnknown, 16005),
		mkHop(mpls.VendorUnknown, 16005),
		mkHop(mpls.VendorUnknown, 311111),
	)
	res := analyze(p)
	tuns := res.Tunnels()
	if len(tuns) != 1 {
		t.Fatalf("tunnels = %+v", tuns)
	}
	clouds := tuns[0].Clouds
	if len(clouds) != 2 || clouds[0] != (Cloud{CloudSR, 3}) || clouds[1] != (Cloud{CloudLDP, 1}) {
		t.Errorf("clouds = %+v", clouds)
	}
}

func TestMultipleTunnelsPerPath(t *testing.T) {
	p := pathOf(
		mkHop(mpls.VendorUnknown, 16005),
		mkHop(mpls.VendorUnknown, 16005),
		ipHop(),
		mkHop(mpls.VendorUnknown, 999999),
		mkHop(mpls.VendorUnknown, 888888),
	)
	res := analyze(p)
	tuns := res.Tunnels()
	if len(tuns) != 2 {
		t.Fatalf("tunnels = %+v", tuns)
	}
	if tuns[0].Pattern != PatternFullSR || tuns[1].Pattern != PatternFullLDP {
		t.Errorf("patterns = %v, %v", tuns[0].Pattern, tuns[1].Pattern)
	}
}

func TestRestrictToAS(t *testing.T) {
	h1, h2, h3, h4 := ipHop(), ipHop(), ipHop(), ipHop()
	h1.ASN, h2.ASN, h3.ASN, h4.ASN = 65000, 100, 100, 200
	p := pathOf(h1, h2, h3, h4)
	sub := p.RestrictToAS(100)
	if len(sub.Hops) != 2 || sub.Hops[0].Addr != h2.Addr || sub.Hops[1].Addr != h3.Addr {
		t.Errorf("restricted = %+v", sub.Hops)
	}
	if len(p.RestrictToAS(999).Hops) != 0 {
		t.Error("unknown AS returned hops")
	}
}

func TestFlagMetadata(t *testing.T) {
	if FlagCVR.Stars() != 5 || FlagCO.Stars() != 4 || FlagLSVR.Stars() != 4 ||
		FlagLVR.Stars() != 3 || FlagLSO.Stars() != 1 || FlagNone.Stars() != 0 {
		t.Error("star assignment drifted from Sec. 4")
	}
	for _, f := range []Flag{FlagCVR, FlagCO, FlagLSVR, FlagLVR} {
		if !f.Strong() {
			t.Errorf("%v should be strong", f)
		}
	}
	if FlagLSO.Strong() || FlagNone.Strong() {
		t.Error("LSO/None must not be strong")
	}
	if FlagCVR.String() != "CVR" || FlagLSO.String() != "LSO" || Flag(99).String() != "?" {
		t.Error("flag names wrong")
	}
}

// TestAnalyzeInvariants property-checks segment structure over random paths.
func TestAnalyzeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	vendors := []mpls.Vendor{mpls.VendorUnknown, mpls.VendorCisco, mpls.VendorCiscoHuawei, mpls.VendorJuniper}
	for iter := 0; iter < 300; iter++ {
		var hops []Hop
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			v := vendors[rng.Intn(len(vendors))]
			switch rng.Intn(4) {
			case 0:
				hops = append(hops, ipHop())
			case 1:
				hops = append(hops, mkHop(v, uint32(16000+rng.Intn(20))))
			case 2:
				hops = append(hops, mkHop(v, uint32(rng.Intn(1000000))))
			default:
				hops = append(hops, mkHop(v, uint32(rng.Intn(1000000)), uint32(rng.Intn(1000000))))
			}
		}
		p := pathOf(hops...)
		res := analyze(p)
		covered := make([]int, len(hops))
		for _, s := range res.Segments {
			if s.Start < 0 || s.End >= len(hops) || s.Start > s.End {
				t.Fatalf("iter %d: bad bounds %+v", iter, s)
			}
			if len(s.StackDepths) != s.Len() {
				t.Fatalf("iter %d: depths %v for len %d", iter, s.StackDepths, s.Len())
			}
			for k := s.Start; k <= s.End; k++ {
				covered[k]++
				if !hops[k].HasStack() {
					t.Fatalf("iter %d: unlabeled hop %d inside segment %+v", iter, k, s)
				}
			}
			if (s.Flag == FlagCO || s.Flag == FlagCVR) && s.Len() < 2 {
				t.Fatalf("iter %d: sequence flag on %d-hop segment", iter, s.Len())
			}
		}
		for k, cnt := range covered {
			if cnt > 1 {
				t.Fatalf("iter %d: hop %d in %d segments", iter, k, cnt)
			}
		}
		// Determinism.
		res2 := analyze(p)
		if len(res2.Segments) != len(res.Segments) {
			t.Fatalf("iter %d: nondeterministic analysis", iter)
		}
	}
}

func TestReservedLabelsNeverFlagged(t *testing.T) {
	// Explicit-null (0) and other reserved active labels are plain MPLS
	// plumbing: no flags, no sequence participation.
	res := analyze(pathOf(
		mkHop(mpls.VendorCisco, 0),
		mkHop(mpls.VendorCisco, 0),
	))
	if len(res.Segments) != 0 {
		t.Fatalf("reserved-label sequence flagged: %+v", res.Segments)
	}
	// A depth-2 stack with reserved top label (explicit-null + VPN) must
	// not raise LSO either.
	res = analyze(pathOf(mkHop(mpls.VendorUnknown, 0, 700700)))
	if len(res.Segments) != 0 {
		t.Fatalf("reserved-top stack flagged: %+v", res.Segments)
	}
	// But hops with reserved labels still count as MPLS area.
	if res.Areas[0] != AreaMPLS {
		t.Errorf("area = %v, want mpls", res.Areas[0])
	}
}

func TestReservedLabelBreaksSequence(t *testing.T) {
	p := pathOf(
		mkHop(mpls.VendorUnknown, 16005),
		mkHop(mpls.VendorUnknown, 0), // explicit-null hop interleaved
		mkHop(mpls.VendorUnknown, 16005),
	)
	res := analyze(p)
	for _, s := range res.Segments {
		if s.Flag == FlagCO || s.Flag == FlagCVR {
			t.Errorf("sequence across reserved label: %+v", s)
		}
	}
}

func TestTerminalHopNeverFlagged(t *testing.T) {
	term := mkHop(mpls.VendorCisco, 16005, 16008)
	term.Terminal = true
	res := analyze(pathOf(mkHop(mpls.VendorUnknown, 16005), term))
	for _, s := range res.Segments {
		for k := s.Start; k <= s.End; k++ {
			if k == 1 {
				t.Errorf("terminal hop inside segment %+v", s)
			}
		}
	}
}

func TestAnalyzeEmptyAndNilPaths(t *testing.T) {
	res := analyze(pathOf())
	if len(res.Segments) != 0 || len(res.Areas) != 0 || res.HasSR() {
		t.Errorf("empty path result: %+v", res)
	}
	if tuns := res.Tunnels(); len(tuns) != 0 {
		t.Errorf("tunnels on empty path: %+v", tuns)
	}
}

func TestSegmentsByFlagGroups(t *testing.T) {
	p := pathOf(
		mkHop(mpls.VendorUnknown, 16005),
		mkHop(mpls.VendorUnknown, 16005),
		ipHop(),
		mkHop(mpls.VendorUnknown, 1, 2), // reserved top: no flag
		mkHop(mpls.VendorUnknown, 777777, 888888),
	)
	by := analyze(p).SegmentsByFlag()
	if len(by[FlagCO]) != 1 || len(by[FlagLSO]) != 1 {
		t.Errorf("groups = %v", by)
	}
	total := 0
	for _, segs := range by {
		total += len(segs)
	}
	if total != 2 {
		t.Errorf("total segments = %d", total)
	}
}

func TestDetectorMinRunOverride(t *testing.T) {
	// A detector configured with MinRun < 2 is clamped to 2 (the paper's
	// definition requires an actual sequence).
	d := NewDetector()
	d.MinRun = 0
	res := d.Analyze(pathOf(mkHop(mpls.VendorUnknown, 16005), ipHop()))
	for _, s := range res.Segments {
		if s.Flag == FlagCO || s.Flag == FlagCVR {
			t.Errorf("single hop sequence with MinRun=0: %+v", s)
		}
	}
	// MinRun = 3 demands longer runs.
	d.MinRun = 3
	res = d.Analyze(pathOf(mkHop(mpls.VendorUnknown, 16005), mkHop(mpls.VendorUnknown, 16005)))
	for _, s := range res.Segments {
		if s.Flag == FlagCO {
			t.Errorf("2-hop run flagged with MinRun=3: %+v", s)
		}
	}
	res = d.Analyze(pathOf(mkHop(mpls.VendorUnknown, 16005), mkHop(mpls.VendorUnknown, 16005), mkHop(mpls.VendorUnknown, 16005)))
	if len(res.SegmentsByFlag()[FlagCO]) != 1 {
		t.Errorf("3-hop run not flagged with MinRun=3")
	}
}
