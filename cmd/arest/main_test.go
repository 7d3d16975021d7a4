package main

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"arest/internal/archive"
	"arest/internal/asgen"
	"arest/internal/core"
	"arest/internal/exp"
	"arest/internal/lifecycle"
	"arest/internal/mpls"
	"arest/internal/probe"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "fp.txt")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadFingerprints(t *testing.T) {
	p := writeTemp(t, `
# comment line
10.0.0.1 cisco snmp
10.0.0.2 juniper ttl
10.0.0.3 cisco/huawei ttl
10.0.0.4 nokia
`)
	snmp, ttl, err := loadFingerprints(p)
	if err != nil {
		t.Fatal(err)
	}
	if snmp[netip.MustParseAddr("10.0.0.1")] != mpls.VendorCisco {
		t.Errorf("snmp = %v", snmp)
	}
	// Default source is snmp.
	if snmp[netip.MustParseAddr("10.0.0.4")] != mpls.VendorNokia {
		t.Errorf("default source: %v", snmp)
	}
	if ttl[netip.MustParseAddr("10.0.0.2")] != mpls.VendorJuniper {
		t.Errorf("ttl = %v", ttl)
	}
	if ttl[netip.MustParseAddr("10.0.0.3")] != mpls.VendorCiscoHuawei {
		t.Errorf("ambiguity class: %v", ttl)
	}
}

func TestLoadFingerprintsErrors(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"missing-vendor", "10.0.0.1\n"},
		{"bad-addr", "nonsense cisco\n"},
		{"bad-vendor", "10.0.0.1 cisco9000\n"},
		{"bad-source", "10.0.0.1 cisco carrier-pigeon\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := loadFingerprints(writeTemp(t, c.body)); err == nil {
				t.Errorf("accepted %q", c.body)
			}
		})
	}
	if _, _, err := loadFingerprints("/nonexistent/fp.txt"); err == nil {
		t.Error("missing file accepted")
	}
}

// analyze runs the command over one archive and returns its stdout,
// failing the test on a non-zero exit.
func analyze(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, nil, noHard(t), strings.NewReader(""), &stdout, &stderr); code != lifecycle.ExitOK {
		t.Fatalf("arest %v: exit = %d, want 0\nstderr: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// summaryCounts parses the summary tables: "flag.<F>" segment counts,
// "pattern.<P>" tunnel counts, and the strong-SR ("sr") and trace
// ("traces") totals.
func summaryCounts(t *testing.T, out string) map[string]int {
	t.Helper()
	names := map[string]string{}
	for _, f := range core.AllFlags {
		names[f.String()] = "flag." + f.String()
	}
	for _, p := range []core.Pattern{core.PatternFullSR, core.PatternFullLDP, core.PatternSRLDP,
		core.PatternLDPSR, core.PatternLDPSRLDP, core.PatternSRLDPSR, core.PatternOther} {
		names[string(p)] = "pattern." + string(p)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if _, rest, ok := strings.Cut(line, "traces with strong SR evidence: "); ok {
			var sr, traces int
			if _, err := fmt.Sscanf(rest, "%d/%d", &sr, &traces); err != nil {
				t.Fatalf("bad totals line %q: %v", line, err)
			}
			counts["sr"], counts["traces"] = sr, traces
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		key, ok := names[fields[0]]
		if !ok {
			continue
		}
		n, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("bad table row %q: %v", line, err)
		}
		counts[key] = n
	}
	if counts["traces"] == 0 {
		t.Fatalf("no totals line in report:\n%s", out)
	}
	return counts
}

// TestSummaryMatchesDetectStream: the command's tables are exp.DetectStream's
// aggregate — paths delimited to the target AS, as in every campaign
// replay — and "strong SR evidence" counts exactly the traces whose
// restricted path has a strong segment. Half the in-AS interfaces are
// re-annotated to a neighbour AS so the delimitation visibly cuts paths.
func TestSummaryMatchesDetectStream(t *testing.T) {
	data, err := archive.ReadFile(measureArchive(t, 15, nil))
	if err != nil {
		t.Fatal(err)
	}
	full := summaryCounts(t, analyze(t, "-i", writeData(t, data)))
	for a, asn := range data.Borders {
		if asn == data.Meta.Record.ASN && a.As16()[15]%2 == 0 {
			data.Borders[a] = 64512
		}
	}
	path := writeData(t, data)
	got := summaryCounts(t, analyze(t, "-i", path))
	if got["flag.CVR"]+got["flag.CO"] >= full["flag.CVR"]+full["flag.CO"] {
		t.Fatalf("neighbour-AS interfaces did not cut any sequence: %v vs %v", got, full)
	}

	res, err := exp.DetectStreamFile(context.Background(), path, exp.Config{KeepPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Agg
	want := map[string]int{"traces": agg.Traces, "sr": agg.AreaTraces[core.AreaSR]}
	for _, f := range core.AllFlags {
		want["flag."+f.String()] = agg.Flags[f]
	}
	for p, n := range agg.Patterns {
		want["pattern."+string(p)] = n
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report counts = %v\nDetectStream Agg = %v", got, want)
	}
	withSR := 0
	for _, r := range res.Results {
		if r.HasSR() {
			withSR++
		}
	}
	if got["sr"] != withSR {
		t.Errorf("strong-SR traces = %d, but %d restricted results have a strong segment", got["sr"], withSR)
	}
}

// writeData writes an archive to a fresh temp file.
func writeData(t *testing.T, d *archive.Data) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.arest")
	if err := archive.WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFingerprintOverrideChangesFlags: a fingerprint file naming, for every
// labeled hop, a vendor whose SR range holds its label turns constant-label
// CO sequences into vendor-corroborated CVR ones; the sequence count itself
// is unchanged.
func TestFingerprintOverrideChangesFlags(t *testing.T) {
	path := measureArchive(t, 15, nil)
	before := summaryCounts(t, analyze(t, "-i", path))
	if before["flag.CO"] == 0 {
		t.Fatalf("fixture has no CO segments to upgrade: %v", before)
	}

	data, err := archive.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fp strings.Builder
	seen := map[netip.Addr]bool{}
	for _, tr := range data.Traces() {
		for i := range tr.Hops {
			h := &tr.Hops[i]
			if !h.Responded() || !h.HasStack() || seen[h.Addr] {
				continue
			}
			for _, v := range []mpls.Vendor{mpls.VendorCisco, mpls.VendorHuawei, mpls.VendorNokia, mpls.VendorArista} {
				if mpls.InVendorSRRange(v, h.Stack.Top().Label) {
					seen[h.Addr] = true
					fmt.Fprintf(&fp, "%s %s snmp\n", h.Addr, strings.ToLower(v.String()))
					break
				}
			}
		}
	}
	after := summaryCounts(t, analyze(t, "-i", path, "-fingerprints", writeTemp(t, fp.String())))
	if after["flag.CO"] >= before["flag.CO"] || after["flag.CVR"] <= before["flag.CVR"] {
		t.Errorf("override did not move CO to CVR: before %v, after %v", before, after)
	}
	if after["flag.CO"]+after["flag.CVR"] != before["flag.CO"]+before["flag.CVR"] {
		t.Errorf("sequence segment count changed: before %v, after %v", before, after)
	}
}

// TestJSONLInputRejected: the legacy JSON-Lines trace format is not an
// archive; the command fails cleanly instead of panicking.
func TestJSONLInputRejected(t *testing.T) {
	p := filepath.Join(t.TempDir(), "traces.jsonl")
	body := "#{\"asn\":8075,\"name\":\"Microsoft\",\"vps\":1}\n{\"vp\":\"10.0.0.1\",\"dst\":\"10.0.0.2\",\"hops\":[]}\n"
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", p}, nil, noHard(t), strings.NewReader(""), &stdout, &stderr)
	if code != lifecycle.ExitFailure {
		t.Fatalf("exit = %d, want %d", code, lifecycle.ExitFailure)
	}
	if !strings.Contains(stderr.String(), "bad magic") {
		t.Errorf("stderr does not name the bad magic:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected input still wrote %d bytes of report", stdout.Len())
	}
}

// TestDegradedArchiveAnalyzed: the command analyzes a degraded archive (one
// vantage point's probes all failed) instead of quarantining it.
func TestDegradedArchiveAnalyzed(t *testing.T) {
	path := measureArchive(t, 2, func(rec asgen.Record, vp int, c probe.Conn) probe.Conn {
		if vp != 1 {
			return c
		}
		return probe.FaultConn{Conn: c}
	})
	data, err := archive.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data.Degraded == nil || data.Degraded.FailedTraces == 0 {
		t.Fatal("fixture archive is not degraded")
	}
	got := summaryCounts(t, analyze(t, "-i", path))
	if got["traces"] != data.Degraded.TotalTraces {
		t.Errorf("report covers %d traces, want all %d", got["traces"], data.Degraded.TotalTraces)
	}
}
