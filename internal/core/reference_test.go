package core

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"arest/internal/mpls"
)

// refAnalyze is a deliberately naive AReST reference, written from the
// paper's Sec. 4 flag definitions and the Sec. 7.1 area partition rather
// than from Detector.Analyze. It tests every hop interval for being a
// maximal run, then classifies the left-over hops one definition at a
// time: brute force that can be read against the text, in place of the
// detector's single scan.
func refAnalyze(p *Path, suffixMatching bool, minRun int) ([]Segment, []Area) {
	hops := p.Hops
	top := func(k int) uint32 { return hops[k].Stack[0].Label }
	// Only labeled transit hops carry evidence: an active label below 16 is
	// special-purpose MPLS plumbing (RFC 3032), and a terminal reply
	// re-quotes what the previous hop, the same router, already showed.
	eligible := func(k int) bool {
		h := &hops[k]
		return len(h.Stack) > 0 && !h.Terminal && top(k) >= 16
	}
	// Adjacent hops share an active segment when their labels are equal or,
	// with suffix matching (footnote 4), equal modulo 1000: the same SID
	// index under SRGB bases a whole number of thousands apart.
	same := func(a, b uint32) bool {
		return a == b || suffixMatching && a%1000 == b%1000
	}
	// A vendor-range hit needs a fingerprint and an active label inside one
	// of that vendor's SR blocks (Table 1).
	vendorHit := func(k int) bool {
		return hops[k].Vendor != mpls.VendorUnknown && mpls.InVendorSRRange(hops[k].Vendor, top(k))
	}
	isRun := func(i, j int) bool {
		if i < 0 || j >= len(hops) {
			return false
		}
		for k := i; k <= j; k++ {
			if !eligible(k) || k > i && !same(top(k-1), top(k)) {
				return false
			}
		}
		return true
	}
	// "Consecutive" takes at least two hops, whatever MinRun says.
	if minRun < 2 {
		minRun = 2
	}

	// CVR (Sec. 4.1) and CO (Sec. 4.2): maximal runs of at least minRun
	// hops; one vendor-range hit anywhere in the run makes it CVR.
	runAt := make([]*Segment, len(hops))
	inRun := make([]bool, len(hops))
	for i := range hops {
		for j := i + minRun - 1; j < len(hops); j++ {
			if !isRun(i, j) || isRun(i-1, j) || isRun(i, j+1) {
				continue
			}
			seg := &Segment{Start: i, End: j, Flag: FlagCO, Label: top(i)}
			for k := i; k <= j; k++ {
				inRun[k] = true
				seg.StackDepths = append(seg.StackDepths, len(hops[k].Stack))
				if vendorHit(k) {
					seg.Flag = FlagCVR
				}
				if k > i && top(k) != top(k-1) {
					seg.SuffixMatch = true
				}
			}
			runAt[i] = seg
		}
	}

	// Every other eligible hop is judged alone: LSVR (Sec. 4.3) for a
	// stack of two or more with a vendor-range hit, LSO (Sec. 4.5) for such
	// a stack without one, LVR (Sec. 4.4) for a single LSE with a hit.
	var segs []Segment
	for k := range hops {
		if runAt[k] != nil {
			segs = append(segs, *runAt[k])
			continue
		}
		if inRun[k] || !eligible(k) {
			continue
		}
		depth := len(hops[k].Stack)
		var flag Flag
		switch {
		case depth >= 2 && vendorHit(k):
			flag = FlagLSVR
		case depth >= 2:
			flag = FlagLSO
		case vendorHit(k):
			flag = FlagLVR
		default:
			continue
		}
		segs = append(segs, Segment{Start: k, End: k, Flag: flag, Label: top(k), StackDepths: []int{depth}})
	}

	// Sec. 7.1: hops inside a segment of SR evidence are SR; LSO alone is
	// not SR evidence (Sec. 6.3), so its hops fall to MPLS with every other
	// hop that quotes an LSE, was revealed, or carries the implicit-tunnel
	// quoted TTL; the rest are IP.
	areas := make([]Area, len(hops))
	for k := range hops {
		h := &hops[k]
		if len(h.Stack) > 0 || h.Revealed || h.QTTL > 1 {
			areas[k] = AreaMPLS
		}
	}
	for _, s := range segs {
		if s.Flag == FlagLSO {
			continue
		}
		for k := s.Start; k <= s.End; k++ {
			areas[k] = AreaSR
		}
	}
	return segs, areas
}

// fuzzLabels is the label palette fuzzed hops draw from: reserved values,
// the range boundaries of Table 1's vendor blocks and dynamic pools, and
// many labels ending in 005, so equal and suffix-matched runs are common
// (16105 agrees with them mod 100 but not mod 1000).
var fuzzLabels = []uint32{
	0, 1, 3, 7, 13, 15, 16, 16105,
	15005, 15999, 16000, 16005, 17005, 20005, 23999, 24000,
	24005, 27999, 47005, 48005, 48999, 49000, 100005, 116384,
	299005, 299776, 900005, 965535, 16006, 300006, 1048575, 1048005,
}

// fuzzPath decodes fuzz bytes into a path and a MinRun. Byte 0 sets MinRun
// (0–4, so the clamp to 2 is covered). Each hop then takes three bytes:
// shape (bits 0–2 pick a stack depth 0–4, bit 3 terminal, bit 4 revealed,
// bit 5 a quoted TTL of 2), vendor (mod 9, CiscoHuawei included), and the
// palette index of the active label; labels below the top follow the
// palette from there. At most 32 hops are decoded.
func fuzzPath(b []byte) (*Path, int) {
	p := &Path{VP: netip.MustParseAddr("172.16.0.1"), Dst: netip.MustParseAddr("100.0.0.1")}
	if len(b) == 0 {
		return p, 0
	}
	minRun := int(b[0] % 5)
	for off := 1; off+3 <= len(b) && len(p.Hops) < 32; off += 3 {
		shape, vendor, label := b[off], b[off+1], int(b[off+2])
		h := Hop{
			Addr:     netip.AddrFrom4([4]byte{10, 0, 0, byte(len(p.Hops) + 1)}),
			Vendor:   mpls.Vendor(vendor % 9),
			Terminal: shape&0x08 != 0,
			Revealed: shape&0x10 != 0,
			QTTL:     1,
		}
		if shape&0x20 != 0 {
			h.QTTL = 2
		}
		for k := 0; k < int(shape&7)%5; k++ {
			h.Stack = append(h.Stack, mpls.LSE{Label: fuzzLabels[(label+5*k)%len(fuzzLabels)], TTL: 1})
		}
		p.Hops = append(p.Hops, h)
	}
	return p, minRun
}

// FuzzAnalyze holds Detector.Analyze to the naive reference: with suffix
// matching on and off, both must produce the same segments (flag, bounds,
// label, suffix bit, stack depths) and the same area for every hop.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{})
	// CVR: three hops on 16005, the middle one fingerprinted Cisco.
	f.Add([]byte{2, 0, 0, 0, 1, 0, 11, 1, 1, 11, 1, 0, 11, 0, 0, 0})
	// Suffix-matched CO across SRGBs (16005, 20005, 900005), then LSO.
	f.Add([]byte{2, 1, 0, 11, 1, 0, 13, 1, 0, 26, 2, 0, 28})
	// Reserved and terminal hops breaking runs; CiscoHuawei LVR and LSVR.
	f.Add([]byte{2, 1, 8, 11, 1, 0, 0, 1, 8, 11, 9, 8, 11, 2, 8, 12, 0x31, 3, 2})
	// MinRun 3 on a two-hop run, then a revealed and an implicit hop.
	f.Add([]byte{3, 1, 0, 12, 1, 0, 12, 0x10, 0, 0, 0x20, 0, 0, 4, 4, 30})
	// A suffix match followed by an equal pair (16005, 20005, 20005), then
	// 16005 beside 16105, which differ mod 1000.
	f.Add([]byte{2, 1, 0, 11, 1, 0, 13, 1, 0, 13, 0, 0, 0, 1, 0, 11, 1, 0, 7})
	src := rand.New(rand.NewSource(16))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 1+3*src.Intn(16))
		src.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, minRun := fuzzPath(b)
		for _, suffix := range []bool{true, false} {
			res := (&Detector{SuffixMatching: suffix, MinRun: minRun}).Analyze(p)
			segs, areas := refAnalyze(p, suffix, minRun)
			if !reflect.DeepEqual(res.Segments, segs) {
				t.Fatalf("suffix=%v minRun=%d: segments diverge from the reference\ngot  %+v\nwant %+v", suffix, minRun, res.Segments, segs)
			}
			if !reflect.DeepEqual(res.Areas, areas) {
				t.Fatalf("suffix=%v minRun=%d: areas diverge from the reference\ngot  %v\nwant %v", suffix, minRun, res.Areas, areas)
			}
		}
	})
}
