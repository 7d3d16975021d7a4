package netsim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"arest/internal/testrace"
)

// The allocation budgets of pkt, netsim, probe and archive own the wire
// path: together their scenario tables run every branch of it except
// error returns and error-guarded blocks, checks on malformed input, and
// String formatters (DESIGN.md §10). The two tests below keep it so.

// wirePathCeilings is, per wire-path file, how many statements no
// allocation budget executes. Every file of internal/pkt is on the wire
// path and needs an entry.
var wirePathCeilings = map[string]int{
	"internal/archive/sidescan.go":   19,
	"internal/archive/tracecodec.go": 27,
	"internal/mpls/lse.go":           16,
	"internal/netsim/forward.go":     9,
	"internal/netsim/scratch.go":     0,
	"internal/pkt/buf.go":            0,
	"internal/pkt/checksum.go":       0,
	"internal/pkt/icmp.go":           15,
	"internal/pkt/ipv4.go":           8,
	"internal/pkt/rfc4884.go":        0,
	"internal/pkt/udp.go":            2,
	"internal/probe/slab.go":         0,
	"internal/probe/tracer.go":       14,
}

// goTool returns the go command and the module root, skipping the test
// where a nested go command cannot run or would count nothing.
func goTool(t *testing.T) (goBin, root string) {
	t.Helper()
	if testrace.Enabled {
		t.Skip("allocation budgets skip under -race; run this race-free")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	root, err = filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found above the netsim package: %v", err)
	}
	return goBin, root
}

// goTest runs go test with args in the module root and returns its
// combined output and error.
func goTest(goBin, root string, args ...string) (string, error) {
	cmd := exec.Command(goBin, append([]string{"test"}, args...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// coverBlock is one basic block of a coverage profile.
type coverBlock struct {
	start, end int // first and last line
	stmts      int
}

// unexecuted parses a set-mode coverage profile written by several test
// binaries and returns, per file relative to the module, the blocks that
// none of them executed.
func unexecuted(t *testing.T, profile, module string) map[string][]coverBlock {
	t.Helper()
	f, err := os.Open(profile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		file, pos string
	}
	blocks := map[key]coverBlock{}
	hit := map[key]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		// file:startLine.startCol,endLine.endCol numStmts count
		var file, pos string
		var b coverBlock
		var count int
		colon := strings.LastIndex(line, ":")
		file, rest := line[:colon], line[colon+1:]
		if _, err := fmt.Sscanf(rest, "%s %d %d", &pos, &b.stmts, &count); err != nil {
			t.Fatalf("bad profile line %q: %v", line, err)
		}
		var c1, c2 int
		if _, err := fmt.Sscanf(pos, "%d.%d,%d.%d", &b.start, &c1, &b.end, &c2); err != nil {
			t.Fatalf("bad profile position %q: %v", line, err)
		}
		k := key{strings.TrimPrefix(file, module+"/"), pos}
		blocks[k] = b
		if count > 0 {
			hit[k] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]coverBlock{}
	for k, b := range blocks {
		if _, ok := out[k.file]; !ok {
			out[k.file] = nil
		}
		if !hit[k] {
			out[k.file] = append(out[k.file], b)
		}
	}
	return out
}

// TestWirePathBudgetCoverage runs DESIGN.md §10's coverage command over
// the allocation budgets and fails when any wire-path file has more
// statements no budget executes than its ceiling, naming their lines. A
// branch that loses its scenario, or a new branch without one, fails it.
func TestWirePathBudgetCoverage(t *testing.T) {
	goBin, root := goTool(t)
	profile := filepath.Join(t.TempDir(), "cover.out")
	out, err := goTest(goBin, root, "-count=1", "-run", "^TestAllocBudget",
		"-coverpkg=./internal/pkt,./internal/mpls,./internal/netsim,./internal/probe,./internal/archive",
		"-coverprofile="+profile,
		"./internal/pkt", "./internal/mpls", "./internal/netsim", "./internal/probe",
		"./internal/archive", "./internal/core", "./internal/exp")
	if err != nil {
		t.Fatalf("allocation budgets failed:\n%s", out)
	}
	files := unexecuted(t, profile, "arest")
	var names []string
	for name := range files {
		if _, ok := wirePathCeilings[name]; ok || strings.HasPrefix(name, "internal/pkt/") {
			names = append(names, name)
		}
	}
	for name := range wirePathCeilings {
		if _, ok := files[name]; !ok {
			t.Errorf("%s: not in the coverage profile; update wirePathCeilings", name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ceiling, ok := wirePathCeilings[name]
		if !ok {
			t.Errorf("%s: wire-path file without a ceiling in wirePathCeilings", name)
			continue
		}
		blocks := files[name]
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].start < blocks[j].start })
		n := 0
		var lines []string
		for _, b := range blocks {
			n += b.stmts
			lines = append(lines, fmt.Sprintf("%d-%d", b.start, b.end))
		}
		switch {
		case n > ceiling:
			t.Errorf("%s: %d statements no allocation budget executes, ceiling %d; budget the new branches. Unexecuted lines: %s",
				name, n, ceiling, strings.Join(lines, ", "))
		case n < ceiling:
			t.Logf("%s: %d statements unexecuted, below the ceiling of %d; lower it", name, n, ceiling)
		}
	}
}

// TestHotPathInjectionCaught breaks the wire path in an overlaid copy of
// one file at a time, and the named budget must fail on each mutation:
//
//  1. fmt.Sprintf in a budgeted pkt encoder, the construct the retired
//     hotpathalloc analyzer flagged;
//  2. a per-hop copy of the label stack in netsim forwarding, which that
//     analyzer never saw: append growth allocates without any construct
//     it recognised.
func TestHotPathInjectionCaught(t *testing.T) {
	goBin, root := goTool(t)
	for _, m := range []struct {
		file, from, to string
		pkg, budget    string
	}{
		{
			file: "internal/pkt/ipv4.go",
			from: "\tif !p.Src.Is4() || !p.Dst.Is4() {\n\t\treturn nil, fmt.Errorf(\"%w: src/dst must be IPv4 addresses\", ErrBadHeader)\n",
			to: "\tdesc := fmt.Sprintf(\"%s -> %s\", p.Src, p.Dst)\n" +
				"\tif !p.Src.Is4() || !p.Dst.Is4() {\n\t\treturn nil, fmt.Errorf(\"%w: %s: src/dst must be IPv4 addresses\", ErrBadHeader, desc)\n",
			pkg: "./internal/pkt", budget: "TestAllocBudgetEncoders",
		},
		{
			file: "internal/netsim/forward.go",
			from: "\t\tf.stack[0].TTL--\n",
			to:   "\t\tf.stack = append(mpls.Stack(nil), f.stack...)\n\t\tf.stack[0].TTL--\n",
			pkg:  "./internal/netsim", budget: "TestAllocBudgetSend",
		},
	} {
		t.Run(m.budget, func(t *testing.T) {
			path := filepath.Join(root, filepath.FromSlash(m.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(src), m.from) {
				t.Fatalf("%s no longer contains %q; update the mutation", m.file, m.from)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(path))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.from, m.to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := goTest(goBin, root, "-count=1", "-overlay", overlayPath, "-run", "^"+m.budget+"$", m.pkg)
			if err == nil {
				t.Fatalf("%s passed on the mutated %s:\n%s", m.budget, m.file, out)
			}
			// Keep each failing scenario with the count it reached.
			var caught []string
			budgets := 0
			for _, line := range strings.Split(out, "\n") {
				if strings.Contains(line, "allocs/op, budget") {
					budgets++
				}
				if strings.Contains(line, "allocs/op, budget") || strings.Contains(line, "--- FAIL: "+m.budget+"/") {
					caught = append(caught, strings.TrimSpace(line))
				}
			}
			if budgets == 0 {
				t.Fatalf("%s failed, but not on a budget:\n%s", m.budget, out)
			}
			t.Logf("%s on the mutated %s:\n%s", m.budget, m.file, strings.Join(caught, "\n"))
		})
	}
}
