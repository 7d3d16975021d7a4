// Command arestlint machine-checks the repository's contracts (DESIGN.md
// §7/§12/§14) with the five stdlib-only analyzers of internal/lint/rules:
//
//	nowallclock   no wall-clock reads in determinism-contract packages
//	noglobalrand  no process-global math/rand, no wall-clock seeding
//	maporder      no map iteration order reaching slices or output
//	noerrdrop     no discarded error returns in the measurement layers
//	ctxplumb      pipeline entry points take a context; pool loops observe it
//
// By-value lock copies are left to go vet's copylocks check. Nil-safe obs
// instruments, the completeness of the exp.Agg fold and the zero-allocation
// wire path are runtime tests (TestObsNilSafety, TestAggFoldComplete, the
// TestAllocBudget* tables), not analyzers.
//
// Usage:
//
//	arestlint [-list] [-tests] [-json] [./...]
//
// With no arguments (or the literal "./..." pattern) it lints every
// package of the enclosing module. -tests widens loading to _test.go
// files (in-package and external test packages), where map-order and
// wall-clock bugs can invalidate the equivalence tests themselves. -json
// emits one JSON object per line (file, line, col, analyzer, message,
// suppressed_by) including directive-suppressed findings for audit; the
// exit status counts only unsuppressed ones. A finding, a malformed or
// unused //arest:allow directive, or a load failure makes the exit status
// non-zero, so `go run ./cmd/arestlint ./...` gates CI with no external
// install.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"arest/internal/lint"
	"arest/internal/lint/rules"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json, one
// object per line.
type jsonDiag struct {
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Analyzer     string `json:"analyzer"`
	Message      string `json:"message"`
	SuppressedBy string `json:"suppressed_by,omitempty"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("arestlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	tests := fs.Bool("tests", false, "also lint _test.go files (in-package and external test packages)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON lines, including suppressed findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := rules.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "arestlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arestlint:", err)
		return 2
	}
	loader.IncludeTests = *tests

	var pkgs []*lint.Package
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, pat := range patterns {
		switch pat {
		case "./...", "...":
			all, err := loader.LoadAll()
			if err != nil {
				fmt.Fprintln(os.Stderr, "arestlint:", err)
				return 2
			}
			pkgs = append(pkgs, all...)
		default:
			// A single package directory, relative to the working tree.
			dir, err := filepath.Abs(pat)
			if err != nil {
				fmt.Fprintln(os.Stderr, "arestlint:", err)
				return 2
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil || rel == ".." || filepath.IsAbs(rel) || (len(rel) > 2 && rel[:3] == "../") {
				fmt.Fprintf(os.Stderr, "arestlint: %s is outside module %s\n", pat, root)
				return 2
			}
			ip := loader.Module
			if rel != "." {
				ip = loader.Module + "/" + filepath.ToSlash(rel)
			}
			pkg, err := loader.LoadDir(dir, ip)
			if err != nil {
				fmt.Fprintln(os.Stderr, "arestlint:", err)
				return 2
			}
			pkgs = append(pkgs, pkg)
		}
	}

	runner := &lint.Runner{Analyzers: analyzers, IncludeSuppressed: *jsonOut}
	diags, err := runner.Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arestlint:", err)
		return 2
	}
	enc := json.NewEncoder(os.Stdout)
	findings := 0
	for _, d := range diags {
		rel := d.Pos.Filename
		if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			rel = r
		}
		if d.SuppressedBy == "" {
			findings++
		}
		if *jsonOut {
			if err := enc.Encode(jsonDiag{
				File:         filepath.ToSlash(rel),
				Line:         d.Pos.Line,
				Col:          d.Pos.Column,
				Analyzer:     d.Analyzer,
				Message:      d.Message,
				SuppressedBy: d.SuppressedBy,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "arestlint:", err)
				return 2
			}
			continue
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "arestlint: %d finding(s) across %d package(s)\n", findings, len(pkgs))
		return 1
	}
	return 0
}
