package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestPkg materializes a one-file package in a temp dir and returns
// the dir. The loader under test is rooted at the real module so stdlib
// imports resolve; the package itself may live anywhere.
func writeTestPkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func testLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// flagIdents is a toy analyzer that reports every identifier named "bad".
func flagIdents() *Analyzer {
	return &Analyzer{
		Name: "flagbad",
		Doc:  "test analyzer: flags identifiers named bad",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == "bad" {
						pass.Report(id.Pos(), "identifier %q is flagged", id.Name)
					}
					return true
				})
			}
			return nil
		},
	}
}

func runOn(t *testing.T, src string, r *Runner) []Diagnostic {
	t.Helper()
	dir := writeTestPkg(t, src)
	l := testLoader(t)
	pkg, err := l.LoadDir(dir, "linttest/p")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := r.Run([]*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestRunnerReportsAndSorts(t *testing.T) {
	diags := runOn(t, "package p\n\nvar bad = 1\n\nfunc f() { bad++; _ = bad }\n",
		&Runner{Analyzers: []*Analyzer{flagIdents()}})
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Line > b.Line || (a.Line == b.Line && a.Column > b.Column) {
			t.Errorf("diagnostics out of order: %v before %v", diags[i-1], diags[i])
		}
	}
}

func TestAllowSuppresses(t *testing.T) {
	diags := runOn(t, `package p

//arest:allow flagbad the identifier is load-bearing in this fixture

var bad = 1
`, &Runner{Analyzers: []*Analyzer{flagIdents()}})
	if len(diags) != 0 {
		t.Fatalf("allow directive did not suppress: %v", diags)
	}
}

func TestAllowMissingReason(t *testing.T) {
	diags := runOn(t, `package p

//arest:allow flagbad

var bad = 1
`, &Runner{Analyzers: []*Analyzer{flagIdents()}})
	var hasReasonErr, hasFinding bool
	for _, d := range diags {
		if d.Analyzer == DirectiveAnalyzerName && strings.Contains(d.Message, "missing its written reason") {
			hasReasonErr = true
		}
		if d.Analyzer == "flagbad" {
			hasFinding = true
		}
	}
	if !hasReasonErr {
		t.Errorf("reason-less directive not reported: %v", diags)
	}
	if !hasFinding {
		t.Errorf("malformed directive must not suppress; diagnostics: %v", diags)
	}
}

func TestAllowUnknownAnalyzer(t *testing.T) {
	diags := runOn(t, `package p

//arest:allow nosuchcheck because reasons
`, &Runner{Analyzers: []*Analyzer{flagIdents()}})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `unknown analyzer "nosuchcheck"`) {
		t.Fatalf("unknown-analyzer directive not reported: %v", diags)
	}
}

func TestUnusedAllowReported(t *testing.T) {
	src := `package p

//arest:allow flagbad nothing here actually trips it

var good = 1
`
	diags := runOn(t, src, &Runner{Analyzers: []*Analyzer{flagIdents()}})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unused //arest:allow") {
		t.Fatalf("unused allow not reported: %v", diags)
	}
	diags = runOn(t, src, &Runner{Analyzers: []*Analyzer{flagIdents()}, KeepUnusedAllows: true})
	if len(diags) != 0 {
		t.Fatalf("KeepUnusedAllows still reported: %v", diags)
	}
}

// writeTestFiles materializes a multi-file package in a temp dir.
func writeTestFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestDuplicateAllowSecondUnused(t *testing.T) {
	// Suppression consumes the first matching directive; a duplicate for
	// the same analyzer in the same file stays unused and is reported,
	// so stale double-suppressions cannot linger silently.
	diags := runOn(t, `package p

//arest:allow flagbad the first directive covers the finding

//arest:allow flagbad the second is redundant

var bad = 1
`, &Runner{Analyzers: []*Analyzer{flagIdents()}})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unused //arest:allow") {
		t.Fatalf("duplicate allow not reported as unused: %v", diags)
	}
	if diags[0].Pos.Line != 5 {
		t.Errorf("unused report should name the second directive (line 5), got line %d", diags[0].Pos.Line)
	}
}

func TestDirectiveAsLastLine(t *testing.T) {
	// A directive on the file's final line — with no trailing newline —
	// must still parse and suppress.
	src := "package p\n\nvar bad = 1\n\n//arest:allow flagbad final line carries the suppression"
	diags := runOn(t, src, &Runner{Analyzers: []*Analyzer{flagIdents()}})
	if len(diags) != 0 {
		t.Fatalf("last-line directive did not suppress: %v", diags)
	}
}

func TestDirectiveCRLF(t *testing.T) {
	// CRLF sources leave a trailing \r on line comments; the directive
	// grammar must treat it as whitespace, not as part of the reason.
	src := "package p\r\n\r\n//arest:allow flagbad crlf fixture keeps its reason\r\n\r\nvar bad = 1\r\n"
	diags := runOn(t, src, &Runner{Analyzers: []*Analyzer{flagIdents()}})
	if len(diags) != 0 {
		t.Fatalf("CRLF directive did not suppress: %v", diags)
	}
}

func TestUnknownDirectiveVerb(t *testing.T) {
	// A typo'd or retired verb must fail the build, not silently check
	// nothing.
	for _, verb := range []string{"alow", "mergeable"} {
		diags := runOn(t, "package p\n\n//arest:"+verb+" flagbad oops\n", &Runner{Analyzers: []*Analyzer{flagIdents()}})
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown directive //arest:"+verb) {
			t.Errorf("unknown verb %q not reported: %v", verb, diags)
		}
	}
}

func TestIncludeSuppressed(t *testing.T) {
	src := `package p

//arest:allow flagbad fixture identifier is intentional

var bad = 1
`
	diags := runOn(t, src, &Runner{Analyzers: []*Analyzer{flagIdents()}, IncludeSuppressed: true})
	if len(diags) != 1 {
		t.Fatalf("expected the suppressed finding back, got: %v", diags)
	}
	d := diags[0]
	if d.SuppressedBy == "" || !strings.Contains(d.SuppressedBy, "fixture identifier is intentional") {
		t.Errorf("SuppressedBy should carry the directive's reason, got %q", d.SuppressedBy)
	}
	if !strings.Contains(d.String(), "suppressed by") {
		t.Errorf("String() should mark suppression: %s", d.String())
	}
}

// TestTestsModeWidensLinting pins the -tests loader behavior: a finding
// living in a _test.go file is invisible to a plain load and reported
// under IncludeTests, and an //arest:allow in that test file both
// suppresses it and participates in unused-allow accounting.
func TestTestsModeWidensLinting(t *testing.T) {
	run := func(files map[string]string, withTests bool) []Diagnostic {
		t.Helper()
		dir := writeTestFiles(t, files)
		l := testLoader(t)
		l.IncludeTests = withTests
		pkg, err := l.LoadDir(dir, "linttest/tm")
		if err != nil {
			t.Fatal(err)
		}
		diags, err := (&Runner{Analyzers: []*Analyzer{flagIdents()}}).Run([]*Package{pkg})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}

	finding := map[string]string{
		"p.go":      "package p\n\nvar good = 1\n",
		"p_test.go": "package p\n\nvar bad = 2\n",
	}
	if diags := run(finding, false); len(diags) != 0 {
		t.Errorf("plain load saw the test file: %v", diags)
	}
	diags := run(finding, true)
	if len(diags) != 1 || !strings.HasSuffix(diags[0].Pos.Filename, "p_test.go") {
		t.Errorf("-tests load missed the test-file finding: %v", diags)
	}

	allowed := map[string]string{
		"p.go":      "package p\n\nvar good = 1\n",
		"p_test.go": "package p\n\n//arest:allow flagbad fixture name is intentional\n\nvar bad = 2\n",
	}
	if diags := run(allowed, true); len(diags) != 0 {
		t.Errorf("test-file allow did not suppress under -tests: %v", diags)
	}

	unused := map[string]string{
		"p.go":      "package p\n\nvar good = 1\n",
		"p_test.go": "package p\n\n//arest:allow flagbad nothing trips it here\n",
	}
	if diags := run(unused, false); len(diags) != 0 {
		t.Errorf("plain load should never see test-file directives: %v", diags)
	}
	diags = run(unused, true)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "unused //arest:allow") {
		t.Errorf("-tests load missed the unused test-file allow: %v", diags)
	}
}

// TestLoadXTestPackage exercises the external-test loader: the package
// under test resolves from the fixture directory (test-augmented), and
// the foo_test package comes back as its own lintable package.
func TestLoadXTestPackage(t *testing.T) {
	dir := writeTestFiles(t, map[string]string{
		"p.go":      "package p\n\nfunc Answer() int { return 42 }\n",
		"p_test.go": "package p\n\nconst fromInPkgTest = 1\n",
		"p_x_test.go": `package p_test

import "linttest/xt"

var bad = p.Answer()
`,
	})
	l := testLoader(t)
	l.IncludeTests = true
	xpkg, err := l.loadXTest("linttest/xt", dir)
	if err != nil {
		t.Fatal(err)
	}
	if xpkg == nil || xpkg.Path != "linttest/xt_test" {
		t.Fatalf("external test package not loaded: %+v", xpkg)
	}
	diags, err := (&Runner{Analyzers: []*Analyzer{flagIdents()}}).Run([]*Package{xpkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.HasSuffix(diags[0].Pos.Filename, "p_x_test.go") {
		t.Errorf("analyzer did not run over the external test package: %v", diags)
	}
	if nox, err := l.loadXTest("linttest/nox", writeTestPkg(t, "package q\n")); err != nil || nox != nil {
		t.Errorf("directory without external tests should load as nil, got %v, %v", nox, err)
	}
}

// TestLoadXTestThroughDependent pins go test's resolution rule: inside an
// external test package, a module package that imports the package under
// test is re-checked against its test-augmented variant, so a value it
// returns can be passed to an export_test.go accessor.
func TestLoadXTestThroughDependent(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module lt\n\ngo 1.22\n",
		"base/base.go":        "package base\n\ntype T struct{ n int }\n\nfunc New() *T { return &T{n: 1} }\n",
		"base/export_test.go": "package base\n\nfunc N(t *T) int { return t.n }\n",
		"base/base_x_test.go": "package base_test\n\nimport (\n\t\"lt/base\"\n\t\"lt/dep\"\n)\n\nvar _ = base.N(dep.Make())\n",
		"dep/dep.go":          "package dep\n\nimport \"lt/base\"\n\nfunc Make() *base.T { return base.New() }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l.IncludeTests = true
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if want := "[lt/base lt/base_test lt/dep]"; fmt.Sprint(paths) != want {
		t.Errorf("loaded %v, want %s", paths, want)
	}
}

// TestAnnotationValidationReported pins the framework-level validation of
// the //arest:hotpath / coldpath grammar: every malformed placement is a
// build-failing diagnostic regardless of which analyzers run.
func TestAnnotationValidationReported(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"bare hotpath",
			"package p\n\n//arest:hotpath\nfunc F() {}\n",
			"scope must be 'file' or 'package'; got \"\""},
		{"hotpath unknown scope",
			"package p\n\n//arest:hotpath galaxy\nfunc F() {}\n",
			"scope must be 'file' or 'package'; got \"galaxy\""},
		{"coldpath missing reason",
			"package p\n\n//arest:hotpath file\n\n//arest:coldpath\nfunc F() {}\n",
			"missing its written reason"},
		{"coldpath outside hot scope",
			"package p\n\n//arest:coldpath formatting helper\nfunc F() {}\n",
			"excuses nothing"},
		{"coldpath outside function doc",
			"package p\n\n//arest:coldpath reason\n\nvar x = 1\n",
			"//arest:coldpath must sit in a function's doc comment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runOn(t, tc.src, &Runner{Analyzers: []*Analyzer{flagIdents()}})
			for _, d := range diags {
				if d.Analyzer == DirectiveAnalyzerName && strings.Contains(d.Message, tc.want) {
					return
				}
			}
			t.Errorf("no directive diagnostic containing %q; got: %v", tc.want, diags)
		})
	}
}

func TestLoadAllCoversModule(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for _, want := range []string{
		"arest/internal/netsim",
		"arest/internal/obs",
		"arest/internal/lint",
		"arest/cmd/arestlint",
	} {
		if !seen[want] {
			t.Errorf("LoadAll missed %s (got %d packages)", want, len(pkgs))
		}
	}
	for p := range seen {
		if strings.Contains(p, "testdata") {
			t.Errorf("LoadAll descended into testdata: %s", p)
		}
	}
}

// fakeTB records harness failures so the want harness can be tested
// against intentionally wrong expectations.
type fakeTB struct {
	errors []string
	fatal  bool
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.fatal = true
	f.errors = append(f.errors, fmt.Sprintf(format, args...))
	panic(f)
}

func TestWantHarnessMatches(t *testing.T) {
	dir := writeTestPkg(t, `package p

var bad = 1 // want "identifier \"bad\" is flagged"
var good = 2
`)
	l := testLoader(t)
	RunWantTest(t, l, dir, "linttest/want", flagIdents())
}

func TestWantHarnessCatchesMismatch(t *testing.T) {
	dir := writeTestPkg(t, `package p

var bad = 1
var good = 2 // want "never reported"
`)
	l := testLoader(t)
	ft := &fakeTB{}
	func() {
		defer func() { recover() }()
		RunWantTest(ft, l, dir, "linttest/mismatch", flagIdents())
	}()
	var unexpected, unmet bool
	for _, e := range ft.errors {
		if strings.Contains(e, "unexpected finding") {
			unexpected = true
		}
		if strings.Contains(e, "no finding matched") {
			unmet = true
		}
	}
	if !unexpected || !unmet {
		t.Fatalf("want harness missed mismatches: %v", ft.errors)
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("FindModuleRoot returned %s without go.mod: %v", root, err)
	}
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Error("FindModuleRoot succeeded outside any module")
	}
}

func TestSortAndDedupe(t *testing.T) {
	pos := func(file string, line int) token.Position {
		return token.Position{Filename: file, Line: line, Column: 1}
	}
	in := []Diagnostic{
		{Analyzer: "a", Pos: pos("b.go", 2), Message: "m"},
		{Analyzer: "a", Pos: pos("a.go", 9), Message: "m"},
		{Analyzer: "a", Pos: pos("b.go", 2), Message: "m"},
	}
	SortDiagnostics(in)
	out := dedupe(in)
	if len(out) != 2 || out[0].Pos.Filename != "a.go" || out[1].Pos.Filename != "b.go" {
		t.Fatalf("sort+dedupe wrong: %v", out)
	}
}
