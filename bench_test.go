// Package arest holds the benchmark harness: one benchmark per table and
// figure of the paper (regenerating the artifact from a shared campaign),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package arest

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"arest/internal/asgen"
	"arest/internal/core"
	"arest/internal/exp"
	"arest/internal/fingerprint"
	"arest/internal/longitudinal"
	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/pkt"
	"arest/internal/probe"
	"arest/internal/survey"
)

var (
	benchOnce sync.Once
	benchCamp *exp.Campaign
	benchErr  error
)

// benchCampaign builds one shared campaign over a representative catalogue
// slice (claimed/unknown, every category, the ground-truth AS).
func benchCampaign(b *testing.B) *exp.Campaign {
	b.Helper()
	benchOnce.Do(func() {
		cfg := exp.Config{
			Seed: 20250405, NumVPs: 4, MaxTargets: 16,
			FlowsPerTarget: 1, AliasCandidateCap: 80, MaxRouters: 28,
		}
		var recs []asgen.Record
		for _, id := range []int{2, 7, 13, 15, 19, 28, 40, 46, 52, 55} {
			r, _ := asgen.ByID(id)
			recs = append(recs, r)
		}
		benchCamp, benchErr = exp.Run(context.Background(), recs, cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCamp
}

// benchExperiment benchmarks regenerating one figure/table from the shared
// campaign.
func benchExperiment(b *testing.B, id string) {
	c := benchCampaign(b)
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := e.Run(context.Background(), c); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkHeadline measures the Sec. 6.2 aggregate computation and reports
// the measured rates alongside.
func BenchmarkHeadline(b *testing.B) {
	c := benchCampaign(b)
	var h exp.Headline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = exp.ComputeHeadline(c)
	}
	b.ReportMetric(100*float64(h.ClaimedStrong)/float64(max(1, h.ClaimedASes)), "%claimed-strong")
	b.ReportMetric(100*h.FingerprintedSRShare, "%sr-hops-fingerprinted")
	b.ReportMetric(100*h.SuffixMatchShare, "%suffix-matches")
}

// BenchmarkCampaignAS measures the full per-AS pipeline (world build,
// probing, fingerprinting, alias resolution, annotation, detection).
func BenchmarkCampaignAS(b *testing.B) {
	rec, _ := asgen.ByID(28)
	cfg := exp.Config{Seed: 1, NumVPs: 2, MaxTargets: 8, FlowsPerTarget: 1,
		AliasCandidateCap: 40, MaxRouters: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAS(context.Background(), rec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignParallel measures the shared bench campaign end to end
// at worker counts 1 (the sequential baseline) and GOMAXPROCS, exercising
// every fan-out stage: the AS pool, per-AS trace sweeps, fingerprint
// echoes, conflict-ordered alias probing, and detection. Output is
// identical at every worker count, so the ratio is pure scheduling gain.
func BenchmarkCampaignParallel(b *testing.B) {
	var recs []asgen.Record
	for _, id := range []int{2, 7, 13, 15, 19, 28, 40, 46, 52, 55} {
		r, _ := asgen.ByID(id)
		recs = append(recs, r)
	}
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 2 {
		// On a single-core runner an 8-worker run can show no speedup; it
		// then measures pure scheduling overhead instead.
		parallel = 8
	}
	for _, workers := range []int{1, parallel} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := exp.Config{
				Seed: 20250405, NumVPs: 4, MaxTargets: 16,
				FlowsPerTarget: 1, AliasCandidateCap: 80, MaxRouters: 28,
				Workers: workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := exp.Run(context.Background(), recs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSendContention measures raw Send throughput on one shared
// Network with all cores probing at once — the contention profile of a
// parallel VP sweep (atomic IP-ID bumps plus read-only FIB lookups).
func BenchmarkSendContention(b *testing.B) {
	rec, _ := asgen.ByID(15)
	dep := asgen.DeploymentFor(rec, 1)
	dep.Routers = 60
	w := asgen.Build(rec, dep, 1, 1)
	tgt := w.Targets[0]
	b.RunParallel(func(pb *testing.PB) {
		tc := probe.NewTracer(probe.NetsimConn{Net: w.Net}, w.VPs[0])
		tc.Reveal = false
		flow := uint16(0)
		for pb.Next() {
			flow++
			if _, err := tc.Trace(context.Background(), tgt, flow%8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDetector measures raw AReST analysis throughput on a synthetic
// annotated path.
func BenchmarkDetector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var paths []*core.Path
	for p := 0; p < 64; p++ {
		path := &core.Path{}
		for h := 0; h < 16; h++ {
			hop := core.Hop{}
			switch rng.Intn(3) {
			case 0:
				hop.Stack = mpls.Stack{{Label: 16000 + uint32(rng.Intn(30)), TTL: 1}}
			case 1:
				hop.Stack = mpls.Stack{{Label: uint32(rng.Intn(1 << 20)), TTL: 1},
					{Label: uint32(rng.Intn(1 << 20)), TTL: 1}}
			}
			path.Hops = append(path.Hops, hop)
		}
		paths = append(paths, path)
	}
	det := core.NewDetector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Analyze(paths[i%len(paths)])
	}
}

// BenchmarkProbe measures one full traceroute (wire codecs included).
func BenchmarkProbe(b *testing.B) {
	n := netsim.New(9)
	prof := netsim.DefaultProfile(mpls.VendorCisco)
	gw := n.AddRouter(netsim.RouterConfig{ASN: 64999, Vendor: mpls.VendorLinux,
		Profile: netsim.DefaultProfile(mpls.VendorLinux)})
	prev := gw
	var last *netsim.Router
	for i := 0; i < 10; i++ {
		r := n.AddRouter(netsim.RouterConfig{ASN: 65040, Vendor: mpls.VendorCisco,
			Profile: prof, SREnabled: true, Mode: netsim.ModeSR})
		n.Connect(prev.ID, r.ID, 10)
		prev, last = r, r
	}
	vp := mustAddr("172.16.9.10")
	tgt := mustAddr("100.64.9.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(tgt, last.ID)
	n.Compute()
	tc := probe.NewTracer(probe.NetsimConn{Net: n}, vp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := tc.Trace(context.Background(), tgt, 0)
		if err != nil || !tr.Reached() {
			b.Fatalf("trace failed: %v", err)
		}
	}
}

// BenchmarkAblationVisibility sweeps the ttl-propagate / RFC4950 knobs and
// reports how many labeled hops each visibility class leaves AReST to work
// with (DESIGN.md ablation 1: detection starves without explicit tunnels).
func BenchmarkAblationVisibility(b *testing.B) {
	cases := []struct {
		name               string
		propagate, rfc4950 bool
	}{
		{"explicit", true, true},
		{"implicit", true, false},
		{"opaque", false, true},
		{"invisible", false, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			labeled := 0
			for i := 0; i < b.N; i++ {
				labeled = visibilityLabeledHops(c.propagate, c.rfc4950)
			}
			b.ReportMetric(float64(labeled), "labeled-hops")
		})
	}
}

func visibilityLabeledHops(propagate, rfc4950 bool) int {
	n := netsim.New(5)
	prof := netsim.DefaultProfile(mpls.VendorCisco)
	prof.TTLPropagate = propagate
	prof.RFC4950 = rfc4950
	gw := n.AddRouter(netsim.RouterConfig{ASN: 64999, Vendor: mpls.VendorLinux,
		Profile: netsim.DefaultProfile(mpls.VendorLinux)})
	prev := gw
	var last *netsim.Router
	for i := 0; i < 6; i++ {
		r := n.AddRouter(netsim.RouterConfig{ASN: 65050, Vendor: mpls.VendorCisco,
			Profile: prof, SREnabled: true, Mode: netsim.ModeSR})
		n.Connect(prev.ID, r.ID, 10)
		prev, last = r, r
	}
	vp := mustAddr("172.16.8.10")
	tgt := mustAddr("100.64.8.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(tgt, last.ID)
	n.Compute()
	tc := probe.NewTracer(probe.NetsimConn{Net: n}, vp)
	tr, err := tc.Trace(context.Background(), tgt, 0)
	if err != nil {
		return -1
	}
	labeled := 0
	for _, h := range tr.Hops {
		if h.HasStack() {
			labeled++
		}
	}
	return labeled
}

// BenchmarkAblationPoolSize measures the CVR/CO false-coincidence
// probability as a function of dynamic label pool size (Sec. 4.1 argues
// 1/N per adjacent pair; with Cisco's ~1M pool that is ~1e-6).
func BenchmarkAblationPoolSize(b *testing.B) {
	for _, size := range []uint32{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		b.Run(sizeName(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			collisions, pairs := 0, 0
			for i := 0; i < b.N; i++ {
				a := rng.Uint32() % size
				c := rng.Uint32() % size
				pairs++
				if a == c {
					collisions++
				}
			}
			b.ReportMetric(float64(collisions)/float64(pairs), "coincidence-rate")
		})
	}
}

func sizeName(s uint32) string {
	switch s {
	case 1 << 8:
		return "pool-256"
	case 1 << 12:
		return "pool-4k"
	case 1 << 16:
		return "pool-64k"
	default:
		return "pool-1M"
	}
}

// BenchmarkAblationSuffix compares sequence detection with and without
// suffix-based matching on a misaligned-SRGB domain (DESIGN.md ablation 4).
func BenchmarkAblationSuffix(b *testing.B) {
	// Hand-build the differing-SRGB path of Fig. 4: same SID index, bases
	// 16000 vs 13000 vs 16000.
	path := &core.Path{Hops: []core.Hop{
		{Stack: mpls.Stack{{Label: 16005, TTL: 1}}, Vendor: mpls.VendorCisco, Source: fingerprint.SourceSNMP},
		{Stack: mpls.Stack{{Label: 13005, TTL: 1}}},
		{Stack: mpls.Stack{{Label: 16005, TTL: 1}}},
	}}
	for _, suffix := range []bool{true, false} {
		name := "with-suffix"
		if !suffix {
			name = "without-suffix"
		}
		b.Run(name, func(b *testing.B) {
			det := core.NewDetector()
			det.SuffixMatching = suffix
			segs := 0
			for i := 0; i < b.N; i++ {
				res := det.Analyze(path)
				segs = 0
				for _, s := range res.Segments {
					if s.Flag == core.FlagCVR || s.Flag == core.FlagCO {
						segs++
					}
				}
			}
			b.ReportMetric(float64(segs), "sequence-segments")
		})
	}
}

// BenchmarkSurveyAggregation and BenchmarkArchiveGeneration cover the two
// data substrates' hot paths.
func BenchmarkSurveyAggregation(b *testing.B) {
	rs := survey.Respondents()
	for i := 0; i < b.N; i++ {
		survey.VendorShares(rs)
		survey.UsageShares(rs)
		survey.DefaultRangeRates(rs)
	}
}

func BenchmarkArchiveGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		longitudinal.Measure(longitudinal.Generate(longitudinal.CAIDA, 1000, int64(i)))
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// BenchmarkExtLongitudinal regenerates the longitudinal extension.
func BenchmarkExtLongitudinal(b *testing.B) { benchExperiment(b, "ext-longitudinal") }

// BenchmarkExtSRGBInference regenerates the SRGB-inference extension.
func BenchmarkExtSRGBInference(b *testing.B) { benchExperiment(b, "ext-srgb") }

// BenchmarkMultipathDiscovery measures MDA-style discovery over an ECMP
// diamond.
func BenchmarkMultipathDiscovery(b *testing.B) {
	n := netsim.New(3)
	prof := netsim.DefaultProfile(mpls.VendorCisco)
	mk := func() *netsim.Router {
		return n.AddRouter(netsim.RouterConfig{ASN: 100, Vendor: mpls.VendorCisco, Profile: prof})
	}
	gw, s, d := mk(), mk(), mk()
	n.Connect(gw.ID, s.ID, 10)
	for i := 0; i < 4; i++ {
		x := mk()
		n.Connect(s.ID, x.ID, 10)
		n.Connect(x.ID, d.ID, 10)
	}
	vp := mustAddr("172.16.7.1")
	tgt := mustAddr("100.7.0.9")
	n.AddHost(vp, gw.ID)
	n.AddHost(tgt, d.ID)
	n.Compute()
	tc := probe.NewTracer(probe.NetsimConn{Net: n}, vp)
	b.ResetTimer()
	var width int
	for i := 0; i < b.N; i++ {
		m, err := tc.DiscoverMultipath(context.Background(), tgt, 64)
		if err != nil {
			b.Fatal(err)
		}
		width = m.MaxWidth()
	}
	b.ReportMetric(float64(width), "max-width")
}

// BenchmarkWireCodecs measures the hot codec paths the prober exercises on
// every probe: probe marshal plus reply unmarshal (IPv4+ICMP+RFC 4950)
// with caller-held buffers, the zero-allocation path the prober and
// simulator run.
func BenchmarkWireCodecs(b *testing.B) {
	src := mustAddr("10.0.0.1")
	dst := mustAddr("192.0.2.9")
	u := &pkt.UDP{SrcPort: 33434, DstPort: 33435, Payload: []byte("arest-tnt-probe")}
	ub, _ := u.AppendMarshal(nil, src, dst)
	probeIP := &pkt.IPv4{TTL: 6, Protocol: pkt.ProtoUDP, Src: src, Dst: dst, Payload: ub}
	pw, _ := probeIP.AppendMarshal(nil)
	stack, _ := mpls.Stack{{Label: 16005, TTL: 1}, {Label: 37000, TTL: 1}}.AppendMarshal(nil)
	obj := pkt.ExtensionObject{Class: pkt.ClassMPLSLabelStack, CType: pkt.CTypeIncomingStack, Payload: stack}
	icmp := &pkt.ICMP{Type: pkt.ICMPTimeExceeded, Body: pw, Extensions: []pkt.ExtensionObject{obj}}
	ib, _ := icmp.AppendMarshal(nil)
	reply := &pkt.IPv4{TTL: 250, Protocol: pkt.ProtoICMP, Src: dst, Dst: src, Payload: ib}
	rw, _ := reply.AppendMarshal(nil)
	wire := make([]byte, 0, 128)
	var rip pkt.IPv4
	var m pkt.ICMP
	lses := make(mpls.Stack, 0, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := probeIP.AppendMarshal(wire[:0])
		if err != nil {
			b.Fatal(err)
		}
		wire = w
		if err := pkt.UnmarshalIPv4Into(&rip, rw); err != nil {
			b.Fatal(err)
		}
		if err := pkt.UnmarshalICMPInto(&m, rip.Payload); err != nil {
			b.Fatal(err)
		}
		var ok bool
		if lses, ok = m.AppendMPLSStack(lses[:0]); !ok {
			b.Fatal("stack lost")
		}
	}
}

// BenchmarkLargeWorldBuild measures constructing and computing the control
// planes of a large synthetic AS (SPF, LDP, SIDs).
func BenchmarkLargeWorldBuild(b *testing.B) {
	rec, _ := asgen.ByID(40)
	dep := asgen.DeploymentFor(rec, 1)
	dep.Routers = 80
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := asgen.Build(rec, dep, 4, 1)
		if len(w.Routers) != 80 {
			b.Fatal("world truncated")
		}
	}
}

// BenchmarkSendThroughput measures raw simulator forwarding: one probe
// through a 60-router world, wire codecs included.
func BenchmarkSendThroughput(b *testing.B) {
	rec, _ := asgen.ByID(15)
	dep := asgen.DeploymentFor(rec, 1)
	dep.Routers = 60
	w := asgen.Build(rec, dep, 1, 1)
	tc := probe.NewTracer(probe.NetsimConn{Net: w.Net}, w.VPs[0])
	tc.Reveal = false
	tgt := w.Targets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.Trace(context.Background(), tgt, uint16(i%8)); err != nil {
			b.Fatal(err)
		}
	}
}
