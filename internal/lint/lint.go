// Package lint is a small stdlib-only static-analysis framework that
// machine-checks the repository's determinism contract (DESIGN.md §7/§8).
//
// The design follows the shape of golang.org/x/tools/go/analysis — an
// Analyzer is a named check with a Run function over a type-checked
// package — but is rebuilt on go/parser + go/types + go/importer alone so
// the module keeps its stdlib-only rule. The pieces:
//
//   - Analyzer / Pass / Diagnostic: the diagnostic engine (this file).
//   - Loader (load.go): enumerates and type-checks every package under the
//     module root, resolving intra-module imports from source and stdlib
//     imports from compiler export data.
//   - //arest:allow directives (directive.go): per-file suppression, each
//     carrying a mandatory written justification.
//   - // want harness (want.go): testdata-driven analyzer tests.
//
// Repo-specific analyzers live in internal/lint/rules; cmd/arestlint is
// the CLI that runs them over ./... and fails the build on any finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a single type-checked package
// through the Pass and reports findings via Pass.Report; a non-nil error
// aborts the whole lint run (reserved for internal failures, not findings).
type Analyzer struct {
	// Name identifies the analyzer in output and in //arest:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-line description shown by arestlint -list.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report records a finding at pos. Suppression (//arest:allow) is
	// applied by the Runner, not by analyzers.
	Report func(pos token.Pos, format string, args ...any)
}

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string

	// SuppressedBy is empty for a live finding. When the Runner ran with
	// IncludeSuppressed, findings silenced by an //arest:allow carry the
	// directive's position and reason here ("file:line (reason)") so
	// machine consumers (-json) can audit what the suppressions cover.
	SuppressedBy string
}

func (d Diagnostic) String() string {
	if d.SuppressedBy != "" {
		return fmt.Sprintf("%s: [%s] %s (suppressed by %s)", d.Pos, d.Analyzer, d.Message, d.SuppressedBy)
	}
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Runner applies a fixed set of analyzers to packages, folds in the
// //arest:allow suppression directives, and returns ordered diagnostics.
type Runner struct {
	Analyzers []*Analyzer

	// IncludeSuppressed keeps findings silenced by //arest:allow in the
	// result, with Diagnostic.SuppressedBy set to the directive's
	// position and reason. They still mark the directive used and do not
	// count toward the CLI's exit status.
	IncludeSuppressed bool
}

// known returns the set of analyzer names a directive may reference.
func (r *Runner) known() map[string]bool {
	m := make(map[string]bool, len(r.Analyzers))
	for _, a := range r.Analyzers {
		m[a.Name] = true
	}
	return m
}

// Run executes every analyzer over every package and returns the surviving
// diagnostics sorted by position. Malformed directives (missing reason,
// unknown analyzer or verb) and directives that suppressed nothing are
// themselves reported as "arestlint" diagnostics, so stale justifications
// cannot linger after the code they excused is gone.
func (r *Runner) Run(pkgs []*Package) ([]Diagnostic, error) {
	known := r.known()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg.Fset, pkg.Files, known)
		diags = append(diags, bad...)
		for _, a := range r.Analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			pass.Report = func(pos token.Pos, format string, args ...any) {
				p := pkg.Fset.Position(pos)
				if al := allows.match(a.Name, p.Filename); al != nil {
					al.used = true
					if r.IncludeSuppressed {
						diags = append(diags, Diagnostic{
							Analyzer:     a.Name,
							Pos:          p,
							Message:      fmt.Sprintf(format, args...),
							SuppressedBy: al.summary(),
						})
					}
					return
				}
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Pos:      p,
					Message:  fmt.Sprintf(format, args...),
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		for _, al := range allows {
			if !al.used {
				diags = append(diags, Diagnostic{
					Analyzer: DirectiveAnalyzerName,
					Pos:      al.pos,
					Message: fmt.Sprintf(
						"unused //arest:allow %s: no %s finding in this file; delete the directive",
						al.analyzer, al.analyzer),
				})
			}
		}
	}
	SortDiagnostics(diags)
	return dedupe(diags), nil
}

// dedupe drops exact duplicates from sorted diagnostics (nested map
// ranges, for instance, can surface one sink twice).
func dedupe(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// SortDiagnostics orders findings by file, line, column, analyzer, message
// so output is stable across runs and map-free by construction.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ObjectOf resolves an identifier through Uses then Defs; nil when the
// identifier is not resolved (e.g. the blank identifier).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// CalleeIn resolves the called function of a call expression to a package
// path and function name, handling both qualified idents (pkg.Fn) and
// plain idents. Methods resolve to their receiver's package. ok is false
// for builtins, function-typed variables, and type conversions.
func (p *Pass) CalleeIn(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", "", false
	}
	obj := p.ObjectOf(id)
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}
