// Command arest runs the AReST detection methodology over a stored
// campaign and reports detected SR-MPLS segments, per-flag statistics,
// and interworking tunnels. The input is an arest.archive record stream
// (v2 or v3, as cmd/tntsim emits): the traces plus the archived
// fingerprint and bdrmap annotations. Analysis is exp.DetectStream, the
// same one-pass fold every campaign replay uses, so paths are delimited to
// the target AS exactly as in the paper's pipeline and memory stays
// bounded by the report state rather than the campaign size.
//
// Usage:
//
//	arest -i campaign.arest [-fingerprints fp.txt] [-v|-json]
//
// The optional fingerprint file maps interface addresses to vendors, one
// "addr vendor [snmp|ttl]" per line; its entries override the archived
// annotations. Only this mode, and the per-trace -v and -json outputs,
// hold more than the aggregate report in memory.
//
// Shutdown: the first SIGINT/SIGTERM cancels the analysis at the next
// batch boundary and exits with status 3; a second signal aborts
// immediately. -deadline bounds the run the same way. An interrupted
// analysis prints no report in any mode.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/netip"
	"os"
	"strings"

	"arest/internal/archive"
	"arest/internal/core"
	"arest/internal/eval"
	"arest/internal/exp"
	"arest/internal/lifecycle"
	"arest/internal/mpls"
	"arest/internal/obs"
)

func main() {
	sigs, stopNotify := lifecycle.Notify()
	defer stopNotify()
	hard := func() {
		fmt.Fprintln(os.Stderr, "arest: second signal: aborting immediately")
		os.Exit(lifecycle.ExitFailure)
	}
	os.Exit(run(os.Args[1:], sigs, hard, os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of the command (see cmd/experiments): signals
// come from an injected channel and the exit status is returned.
func run(argv []string, sigs <-chan os.Signal, hard func(), stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input archive (default stdin)")
	fpFile := fs.String("fingerprints", "", "vendor fingerprint file (addr vendor [snmp|ttl])")
	verbose := fs.Bool("v", false, "print every detected segment")
	jsonOut := fs.Bool("json", false, "emit one JSON report per trace instead of tables")
	workers := fs.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the analysis; on expiry it drains like a first signal and exits with status 3")
	metricsOut := fs.String("metrics", "", "export analysis metrics to <file> (.json = JSON, else summary table, - = stdout)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(argv); err != nil {
		return lifecycle.ExitFailure
	}
	errorf := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "arest: "+format+"\n", args...)
		return lifecycle.ExitFailure
	}

	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return errorf("pprof: %v", err)
		}
		fmt.Fprintf(stderr, "pprof listening on http://%s/debug/pprof/\n", addr)
	}
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
	}

	parent := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		parent, cancel = context.WithTimeout(parent, *deadline)
		defer cancel()
	}
	ctx, stopSig := lifecycle.Context(parent, sigs, hard)
	defer stopSig()

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return errorf("open %s: %v", *in, err)
		}
		defer f.Close()
		r = f
	}

	var snmp, ttl map[netip.Addr]mpls.Vendor
	if *fpFile != "" {
		var err error
		if snmp, ttl, err = loadFingerprints(*fpFile); err != nil {
			return errorf("fingerprints: %v", err)
		}
	}

	// A degraded archive is analyzed, never quarantined (MaxTraceFailures
	// -1); only the per-trace output modes retain per-trace results.
	cfg := exp.Config{
		Workers:          *workers,
		Metrics:          reg,
		MaxTraceFailures: -1,
		KeepPaths:        *verbose || *jsonOut,
	}
	var res *exp.ASResult
	var err error
	if *fpFile == "" {
		res, err = exp.DetectStream(ctx, r, cfg)
	} else {
		res, err = detectOverridden(ctx, r, snmp, ttl, cfg)
	}
	if err != nil {
		if lifecycle.Interrupted(err) {
			fmt.Fprintf(stderr, "arest: interrupted: %v (partial report suppressed; re-run to analyze)\n", err)
			return lifecycle.ExitInterrupted
		}
		return errorf("read traces: %v", err)
	}
	if res.Agg.Traces == 0 {
		return errorf("no traces in input")
	}

	enc := json.NewEncoder(stdout)
	for _, tr := range res.Results {
		if *verbose {
			printSegments(stdout, tr)
		}
		if *jsonOut {
			if err := enc.Encode(core.NewReport(tr)); err != nil {
				return errorf("encode report: %v", err)
			}
		}
	}

	if reg != nil {
		snap := reg.Snapshot()
		if err := snap.ExportFile(*metricsOut); err != nil {
			return errorf("metrics: %v", err)
		}
		if *metricsOut != "-" {
			fmt.Fprint(stderr, snap.Summary())
		}
	}

	if !*jsonOut {
		printSummary(stdout, res)
	}
	return lifecycle.ExitOK
}

// detectOverridden is the -fingerprints front of the same fold: the archive
// is materialized, the overrides are merged over its archived fingerprint
// annotations, and exp.Detect replays it.
func detectOverridden(ctx context.Context, r io.Reader, snmp, ttl map[netip.Addr]mpls.Vendor, cfg exp.Config) (*exp.ASResult, error) {
	data, err := archive.ReadData(r)
	if err != nil {
		return nil, err
	}
	maps.Copy(data.SNMP, snmp)
	maps.Copy(data.TTL, ttl)
	return exp.Detect(ctx, data, cfg)
}

// printSegments writes every detected segment of one AS-restricted path,
// with its hops.
func printSegments(w io.Writer, res *core.Result) {
	p := res.Path
	for _, s := range res.Segments {
		fmt.Fprintf(w, "%s -> %s  %-4s stars=%d label=%d hops=%d", p.VP, p.Dst,
			s.Flag, s.Flag.Stars(), s.Label, s.Len())
		if s.SuffixMatch {
			fmt.Fprint(w, " (suffix)")
		}
		fmt.Fprintln(w)
		for k := s.Start; k <= s.End; k++ {
			fmt.Fprintf(w, "    %-15s %s\n", p.Hops[k].Addr, p.Hops[k].Stack)
		}
	}
}

// printSummary renders the per-flag and tunnel-structure tables from the
// folded aggregate. A trace has strong SR evidence exactly when its path
// touches the SR area: Analyze marks a hop AreaSR iff it lies in a strong
// segment.
func printSummary(w io.Writer, res *exp.ASResult) {
	agg := res.Agg
	if res.Record.Name != "" {
		fmt.Fprintf(w, "campaign: %s (AS%d), %d traces\n\n", res.Record.Name, res.Record.ASN, agg.Traces)
	} else {
		fmt.Fprintf(w, "%d traces\n\n", agg.Traces)
	}
	t := eval.Table{Title: "AReST detection summary", Headers: []string{"Flag", "Stars", "Segments"}}
	total := 0
	for _, f := range core.AllFlags {
		t.AddRow(f.String(), strings.Repeat("*", f.Stars()), agg.Flags[f])
		total += agg.Flags[f]
	}
	fmt.Fprint(w, t.Render())
	fmt.Fprintf(w, "total segments: %d; traces with strong SR evidence: %d/%d\n\n",
		total, agg.AreaTraces[core.AreaSR], agg.Traces)

	pt := eval.Table{Title: "Tunnel structure", Headers: []string{"Pattern", "Tunnels"}}
	for _, p := range []core.Pattern{core.PatternFullSR, core.PatternFullLDP, core.PatternSRLDP,
		core.PatternLDPSR, core.PatternLDPSRLDP, core.PatternSRLDPSR, core.PatternOther} {
		if agg.Patterns[p] > 0 {
			pt.AddRow(string(p), agg.Patterns[p])
		}
	}
	fmt.Fprint(w, pt.Render())
}

// loadFingerprints parses "addr vendor [snmp|ttl]" lines.
func loadFingerprints(path string) (snmp, ttl map[netip.Addr]mpls.Vendor, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	snmp = map[netip.Addr]mpls.Vendor{}
	ttl = map[netip.Addr]mpls.Vendor{}
	vendors := map[string]mpls.Vendor{
		"cisco": mpls.VendorCisco, "juniper": mpls.VendorJuniper,
		"huawei": mpls.VendorHuawei, "nokia": mpls.VendorNokia,
		"arista": mpls.VendorArista, "linux": mpls.VendorLinux,
		"mikrotik": mpls.VendorMikroTik, "cisco/huawei": mpls.VendorCiscoHuawei,
		"ciscohuawei": mpls.VendorCiscoHuawei,
	}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("line %d: want 'addr vendor [snmp|ttl]'", line)
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", line, err)
		}
		v, ok := vendors[strings.ToLower(fields[1])]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown vendor %q", line, fields[1])
		}
		src := "snmp"
		if len(fields) >= 3 {
			src = strings.ToLower(fields[2])
		}
		switch src {
		case "snmp", "snmpv3":
			snmp[addr] = v
		case "ttl":
			ttl[addr] = v
		default:
			return nil, nil, fmt.Errorf("line %d: unknown source %q", line, fields[2])
		}
	}
	return snmp, ttl, sc.Err()
}
