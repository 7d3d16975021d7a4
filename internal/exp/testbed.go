package exp

import (
	"context"
	"fmt"
	"net/netip"

	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/fingerprint"
	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/probe"
)

// TestbedScenario is one controlled-environment validation case: a small
// hand-built network whose ground truth makes exactly one flag the expected
// dominant outcome — the lab validation the paper's reproducibility section
// alludes to ("code developed to test AReST on a controlled environment").
type TestbedScenario struct {
	Name     string
	Expected core.Flag
	// Build constructs the network and returns the vantage point and
	// target to trace.
	Build func() (*netsim.Network, netip.Addr, netip.Addr)
}

// testbedChain wires gw + n MPLS routers + target host and returns the
// pieces; cfg customizes the MPLS routers.
func testbedChain(nRouters int, cfg netsim.RouterConfig, tweak func(n *netsim.Network, rs []*netsim.Router)) (*netsim.Network, netip.Addr, netip.Addr) {
	n := netsim.New(8)
	gw := n.AddRouter(netsim.RouterConfig{Name: "gw", ASN: 64999,
		Vendor: mpls.VendorLinux, Profile: netsim.DefaultProfile(mpls.VendorLinux)})
	var rs []*netsim.Router
	prev := gw
	for i := 0; i < nRouters; i++ {
		c := cfg
		c.Name = fmt.Sprintf("r%d", i)
		r := n.AddRouter(c)
		n.Connect(prev.ID, r.ID, 10)
		rs = append(rs, r)
		prev = r
	}
	vp := netip.MustParseAddr("172.16.6.10")
	tgt := netip.MustParseAddr("100.66.0.20")
	n.AddHost(vp, gw.ID)
	n.AddHost(tgt, prev.ID)
	if tweak != nil {
		tweak(n, rs)
	}
	n.Compute()
	return n, vp, tgt
}

// TestbedScenarios returns the five canonical cases of Fig. 6.
func TestbedScenarios() []TestbedScenario {
	ciscoSR := func(snmp bool) netsim.RouterConfig {
		prof := netsim.DefaultProfile(mpls.VendorCisco)
		prof.SNMPOpen = snmp
		return netsim.RouterConfig{ASN: 65100, Vendor: mpls.VendorCisco,
			Profile: prof, SREnabled: true, Mode: netsim.ModeSR}
	}
	return []TestbedScenario{
		{
			Name:     "CVR: explicit SR tunnel, fingerprinted Cisco",
			Expected: core.FlagCVR,
			Build: func() (*netsim.Network, netip.Addr, netip.Addr) {
				return testbedChain(5, ciscoSR(true), nil)
			},
		},
		{
			Name:     "CO: explicit SR tunnel, fingerprint-blind",
			Expected: core.FlagCO,
			Build: func() (*netsim.Network, netip.Addr, netip.Addr) {
				cfg := ciscoSR(false)
				cfg.Profile.RespondsEcho = false
				return testbedChain(5, cfg, nil)
			},
		},
		{
			Name:     "LSVR: opaque SR tunnel with service SID, fingerprinted",
			Expected: core.FlagLSVR,
			Build: func() (*netsim.Network, netip.Addr, netip.Addr) {
				cfg := ciscoSR(true)
				cfg.Profile.TTLPropagate = false // opaque: only the LH shows its stack
				return testbedChain(5, cfg, func(n *netsim.Network, rs []*netsim.Router) {
					egress := rs[len(rs)-1]
					svc := n.AllocateServiceSID(egress)
					id := egress.ID
					n.SRPolicy = func(ing *netsim.Router, e netsim.RouterID, dst netip.Addr, flow uint64) netsim.SegmentList {
						if e == id {
							return netsim.SegmentList{{Node: id}, {Service: true, ServiceLabel: svc}}
						}
						return nil
					}
				})
			},
		},
		{
			Name:     "LVR: opaque SR tunnel, single LSE, fingerprinted",
			Expected: core.FlagLVR,
			Build: func() (*netsim.Network, netip.Addr, netip.Addr) {
				cfg := ciscoSR(true)
				cfg.Profile.TTLPropagate = false
				return testbedChain(5, cfg, nil)
			},
		},
		{
			Name:     "LSO: classic MPLS with VPN stacks, fingerprint-blind",
			Expected: core.FlagLSO,
			Build: func() (*netsim.Network, netip.Addr, netip.Addr) {
				prof := netsim.DefaultProfile(mpls.VendorCisco)
				prof.RespondsEcho = false
				cfg := netsim.RouterConfig{ASN: 65100, Vendor: mpls.VendorCisco,
					Profile: prof, LDPEnabled: true, Mode: netsim.ModeLDP}
				return testbedChain(5, cfg, func(n *netsim.Network, rs []*netsim.Router) {
					egress := rs[len(rs)-1]
					vpn := n.AllocateServiceSID(egress)
					id := egress.ID
					n.LDPStackPolicy = func(ing *netsim.Router, e netsim.RouterID, dst netip.Addr) (uint32, bool) {
						if e == id {
							return vpn, true
						}
						return 0, false
					}
				})
			},
		},
	}
}

// TestbedOutcome is the result of running one scenario through the full
// pipeline.
type TestbedOutcome struct {
	Scenario TestbedScenario
	Dominant core.Flag
	Counts   map[core.Flag]int
	Pass     bool
}

// RunTestbed executes every scenario: trace, fingerprint, analyze, and
// compare the dominant flag against the expectation.
func RunTestbed(ctx context.Context) ([]TestbedOutcome, error) {
	var out []TestbedOutcome
	for _, sc := range TestbedScenarios() {
		n, vp, tgt := sc.Build()
		tc := probe.NewTracer(probe.NetsimConn{Net: n}, vp)
		tr, err := tc.Trace(ctx, tgt, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		ttl, err := fingerprint.CollectTTL(ctx, []*probe.Trace{tr}, tc, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		ann := fingerprint.NewAnnotator(fingerprint.SNMPDataset(n), ttl)
		res := core.NewDetector().Analyze(core.BuildPath(tr, ann, nil))
		counts := map[core.Flag]int{}
		for _, s := range res.Segments {
			counts[s.Flag]++
		}
		dominant := core.FlagNone
		best := 0
		for _, f := range core.AllFlags {
			if counts[f] > best {
				best = counts[f]
				dominant = f
			}
		}
		out = append(out, TestbedOutcome{
			Scenario: sc,
			Dominant: dominant,
			Counts:   counts,
			Pass:     dominant == sc.Expected,
		})
	}
	return out, nil
}

func runTestbed(ctx context.Context, _ *Campaign) string {
	outcomes, err := RunTestbed(ctx)
	if err != nil {
		return "testbed failed: " + err.Error() + "\n"
	}
	t := eval.Table{Title: "Controlled testbed — one scenario per flag",
		Headers: []string{"Scenario", "Expected", "Dominant", "Pass"}}
	for _, o := range outcomes {
		t.AddRow(o.Scenario.Name, o.Scenario.Expected.String(), o.Dominant.String(), o.Pass)
	}
	return t.Render()
}
