package exp

import (
	"context"
	"fmt"
	"strings"

	"arest/internal/asgen"
	"arest/internal/core"
	"arest/internal/eval"
)

// EpochStat summarizes one longitudinal epoch for one AS.
type EpochStat struct {
	Epoch int
	// SRFrac is the deployed ground-truth SR fraction at this epoch.
	SRFrac float64
	// DetectedSRShare is the AReST-measured share of interfaces in SR
	// areas (the observable proxy for adoption).
	DetectedSRShare float64
	// Interworking reports whether hybrid tunnels were observed — they
	// should appear mid-migration and vanish at full deployment.
	Interworking bool
}

// RunLongitudinal tracks an AS migrating from classic LDP to full SR-MPLS
// across epochs — the longitudinal adoption analysis the paper leaves as
// future work. Epoch e deploys SR on a growing contiguous region, with a
// mapping server once both planes coexist.
func RunLongitudinal(ctx context.Context, rec asgen.Record, epochs int, cfg Config) ([]EpochStat, error) {
	var out []EpochStat
	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		dep := cfg.deployment(rec)
		dep.MPLS = true
		dep.SRFrac = float64(e) / float64(epochs-1)
		dep.Interworking = dep.SRFrac > 0 && dep.SRFrac < 1
		dep.MappingServer = dep.Interworking
		// Keep visibility stable so the trend isolates deployment.
		dep.PropagateProb = 1
		dep.RFC4950Prob = 1

		r, err := runASWithDeployment(ctx, rec, dep, cfg)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		ic := r.AreaInterfaceCounts()
		total := ic[core.AreaSR] + ic[core.AreaMPLS] + ic[core.AreaIP]
		share := 0.0
		if total > 0 {
			share = float64(ic[core.AreaSR]) / float64(total)
		}
		interworking := false
		for p, n := range r.TunnelPatterns() {
			if n > 0 && p != core.PatternFullSR && p != core.PatternFullLDP && p != core.PatternOther {
				interworking = true
			}
		}
		out = append(out, EpochStat{
			Epoch:           e,
			SRFrac:          dep.SRFrac,
			DetectedSRShare: share,
			Interworking:    interworking,
		})
	}
	return out, nil
}

// LongitudinalTable renders the epoch series.
func LongitudinalTable(rec asgen.Record, stats []EpochStat) string {
	t := eval.Table{
		Title:   fmt.Sprintf("Extension — longitudinal SR adoption in %s (AS%d)", rec.Name, rec.ASN),
		Headers: []string{"Epoch", "Deployed SRFrac", "Detected SR iface share", "Interworking seen"},
	}
	for _, s := range stats {
		t.AddRow(s.Epoch, s.SRFrac, s.DetectedSRShare, s.Interworking)
	}
	var b strings.Builder
	b.WriteString(t.Render())
	b.WriteString("expectation: detected share tracks deployment monotonically;\n" +
		"interworking tunnels appear only mid-migration.\n")
	return b.String()
}

func runLongitudinalExp(ctx context.Context, c *Campaign) string {
	rec, _ := asgen.ByID(28) // Bell Canada: a claimed transit AS
	cfg := c.Cfg
	cfg.NumVPs = max(2, cfg.NumVPs/2)
	stats, err := RunLongitudinal(ctx, rec, 5, cfg)
	if err != nil {
		return "longitudinal run failed: " + err.Error() + "\n"
	}
	return LongitudinalTable(rec, stats)
}
