// Campaign: the paper's measurement pipeline end to end, scaled to run in
// seconds — synthetic worlds for a handful of Table 5 ASes, Anaximander
// target selection, TNT probing from several vantage points, fingerprinting
// and bdrmapIT-style annotation, then AReST detection and the headline
// statistics of Sec. 6.2.
package main

import (
	"context"
	"fmt"
	"os"

	"arest/internal/asgen"
	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/exp"
)

func main() {
	// A representative slice of the catalogue: strongly-deployed Content,
	// the ground-truth AS, an LSO-only stub, a claimed transit, and two
	// unknowns.
	ids := []int{7, 13, 15, 28, 40, 46}
	var records []asgen.Record
	for _, id := range ids {
		rec, ok := asgen.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown AS id %d\n", id)
			os.Exit(1)
		}
		records = append(records, rec)
	}

	cfg := exp.DefaultConfig()
	cfg.NumVPs = 4
	cfg.MaxTargets = 16
	cfg.MaxRouters = 30

	fmt.Printf("probing %d ASes from %d vantage points each...\n\n", len(records), cfg.NumVPs)
	campaign, err := exp.Run(context.Background(), records, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Fig. 8-style flag mix.
	t := eval.Table{Title: "AReST flag mix per AS",
		Headers: []string{"AS", "CVR", "CO", "LSVR", "LVR", "LSO", "traces", "IPs"}}
	for _, r := range campaign.ASes {
		sh := r.FlagShares()
		t.AddRow(fmt.Sprintf("#%d %s", r.Record.ID, r.Record.Name),
			sh[core.FlagCVR], sh[core.FlagCO], sh[core.FlagLSVR], sh[core.FlagLVR],
			sh[core.FlagLSO], r.TracesSent, r.DistinctIPs())
	}
	fmt.Print(t.Render())
	fmt.Println()

	// Fig. 10-style area view.
	at := eval.Table{Title: "SR / MPLS / IP areas",
		Headers: []string{"AS", "traces hitting SR", "SR ifaces", "MPLS ifaces", "IP ifaces"}}
	for _, r := range campaign.ASes {
		ts := r.AreaTraceShares()
		ic := r.AreaInterfaceCounts()
		at.AddRow(fmt.Sprintf("#%d %s", r.Record.ID, r.Record.Name),
			ts[core.AreaSR], ic[core.AreaSR], ic[core.AreaMPLS], ic[core.AreaIP])
	}
	fmt.Print(at.Render())
	fmt.Println()

	// Ground-truth scoring (the luxury the real paper only had for ESnet).
	gt := eval.Table{Title: "Strong-flag precision against simulator ground truth",
		Headers: []string{"AS", "TP", "FP", "precision"}}
	for _, r := range campaign.ASes {
		var cm eval.Confusion
		for f, c := range r.GroundTruth() {
			if core.Flag(f).Strong() {
				cm.Add(c)
			}
		}
		gt.AddRow(fmt.Sprintf("#%d %s", r.Record.ID, r.Record.Name), cm.TP, cm.FP, cm.Precision())
	}
	fmt.Print(gt.Render())
	fmt.Println()

	h := exp.ComputeHeadline(campaign)
	fmt.Printf("headline: SR detected in %d/%d claimed ASes (strong flags in %d); "+
		"evidence in %d/%d unknown ASes; %.0f%% of strong-SR hops fingerprinted\n",
		h.ClaimedDetected, h.ClaimedASes, h.ClaimedStrong,
		h.UnknownDetected, h.UnknownASes, 100*h.FingerprintedSRShare)
}
