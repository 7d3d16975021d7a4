package rules

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"arest/internal/lint"
)

// newLoader returns a fresh loader rooted at the real module (mutation
// tests need isolated caches, so each call builds its own).
func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func testdata(t *testing.T, elems ...string) string {
	t.Helper()
	dir := filepath.Join(append([]string{"testdata", "src"}, elems...)...)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestNoWallClock(t *testing.T) {
	const contractPath = "arestlint.test/nowallclock/a"
	an := NoWallClock(append([]string{contractPath, "arestlint.test/nowallclock/suppressed"}, ContractPackages...))
	lint.RunWantTest(t, newLoader(t), testdata(t, "nowallclock", "a"), contractPath, an)
}

func TestNoWallClockOutsideContract(t *testing.T) {
	// Same analyzer config, but the loaded package is not in the contract
	// set: its time.Now stays legal.
	an := NoWallClock(ContractPackages)
	lint.RunWantTest(t, newLoader(t), testdata(t, "nowallclock", "outside"), "arestlint.test/nowallclock/outside", an)
}

func TestNoWallClockSuppressed(t *testing.T) {
	const path = "arestlint.test/nowallclock/suppressed"
	an := NoWallClock([]string{path})
	lint.RunWantTest(t, newLoader(t), testdata(t, "nowallclock", "suppressed"), path, an)
}

func TestNoGlobalRand(t *testing.T) {
	lint.RunWantTest(t, newLoader(t), testdata(t, "noglobalrand", "a"), "arestlint.test/noglobalrand/a", NoGlobalRand())
}

func TestMapOrder(t *testing.T) {
	lint.RunWantTest(t, newLoader(t), testdata(t, "maporder", "a"), "arestlint.test/maporder/a", MapOrder())
}

func TestMapOrderSuppressed(t *testing.T) {
	lint.RunWantTest(t, newLoader(t), testdata(t, "maporder", "suppressed"), "arestlint.test/maporder/suppressed", MapOrder())
}

func TestNoErrDrop(t *testing.T) {
	const path = "arestlint.test/noerrdrop/a"
	an := NoErrDrop(append([]string{path}, ErrAuditPackages...))
	lint.RunWantTest(t, newLoader(t), testdata(t, "noerrdrop", "a"), path, an)
}

func TestNoErrDropOutsideAudit(t *testing.T) {
	// Same analyzer config, but the loaded package is not in the audited
	// set: its discarded errors stay legal.
	an := NoErrDrop(ErrAuditPackages)
	lint.RunWantTest(t, newLoader(t), testdata(t, "noerrdrop", "outside"), "arestlint.test/noerrdrop/outside", an)
}

func TestNoErrDropSuppressed(t *testing.T) {
	const path = "arestlint.test/noerrdrop/suppressed"
	an := NoErrDrop([]string{path})
	lint.RunWantTest(t, newLoader(t), testdata(t, "noerrdrop", "suppressed"), path, an)
}

// vetModule runs go vet over dir as a standalone module named vetcheck and
// returns its combined output. It fails the test if vet reports nothing:
// every caller hands it code that must draw at least one finding.
func vetModule(t *testing.T, dir string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module vetcheck\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet reported nothing in %s:\n%s", dir, out)
	}
	return string(out)
}

// TestNoLockCopy pins the lock-copy rule (DESIGN.md §7) on go vet's
// copylocks check instead of an in-tree analyzer: testdata/vet/copylocks.go
// is vetted as a standalone module, and every line carrying a want comment
// must draw a finding.
func TestNoLockCopy(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "vet", "copylocks.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "copylocks.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	out := vetModule(t, dir)
	wants := 0
	for i, line := range strings.Split(string(src), "\n") {
		if !strings.Contains(line, "// want") {
			continue
		}
		wants++
		if loc := fmt.Sprintf("copylocks.go:%d:", i+1); !strings.Contains(out, loc) {
			t.Errorf("no vet finding at %s (%s)", loc, strings.TrimSpace(line))
		}
	}
	if wants < 8 {
		t.Fatalf("fixture has %d want lines; expected the full lock-copy surface", wants)
	}
}

// TestLockCopyInjectionCaught injects a by-value Registry copy into a copy
// of the real internal/obs package and requires go vet to flag it on the
// injected line, so the rule is pinned on production types, not only on
// the fixture.
func TestLockCopyInjectionCaught(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyGoFiles(t, filepath.Join(root, "internal", "obs"), dir)
	inject := `package obs

// zzSnapshot is the mutation: a by-value Registry copy forking its mutex.
func zzSnapshot(r *Registry) Registry { return *r }
`
	if err := os.WriteFile(filepath.Join(dir, "zz_mutation.go"), []byte(inject), 0o644); err != nil {
		t.Fatal(err)
	}
	out := vetModule(t, dir)
	if !strings.Contains(out, "zz_mutation.go:4:") || !strings.Contains(out, "copies lock") {
		t.Errorf("go vet did not flag the injected Registry copy:\n%s", out)
	}
}

func TestCtxPlumbEntry(t *testing.T) {
	const path = "arestlint.test/ctxplumb/entry"
	an := CtxPlumb(append([]string{path}, CtxEntryPackages...), CtxPoolPackages)
	lint.RunWantTest(t, newLoader(t), testdata(t, "ctxplumb", "entry"), path, an)
}

func TestCtxPlumbPool(t *testing.T) {
	const path = "arestlint.test/ctxplumb/pool"
	an := CtxPlumb(CtxEntryPackages, append([]string{path}, CtxPoolPackages...))
	lint.RunWantTest(t, newLoader(t), testdata(t, "ctxplumb", "pool"), path, an)
}

func TestCtxPlumbOutside(t *testing.T) {
	// Same analyzer config, but the loaded package is in neither set: its
	// ctx-free entry points and blind loops stay legal.
	an := CtxPlumb(CtxEntryPackages, CtxPoolPackages)
	lint.RunWantTest(t, newLoader(t), testdata(t, "ctxplumb", "outside"), "arestlint.test/ctxplumb/outside", an)
}

// TestRealTreeClean is the acceptance gate in test form: the production
// analyzer set over every package of the module must report nothing, with
// every //arest:allow directive both well-formed and actually used.
func TestRealTreeClean(t *testing.T) {
	l := newLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing the tree", len(pkgs))
	}
	runner := &lint.Runner{Analyzers: All()}
	diags, err := runner.Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("real tree not arestlint-clean: %s", d)
	}
}

// copyGoFiles copies the non-test .go sources of the package in srcDir
// into dst, so mutation tests can break a real package in isolation.
func copyGoFiles(t *testing.T, srcDir, dst string) {
	t.Helper()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runAllOnMutation loads the mutated package copy in dir under its real
// import path and runs the full production analyzer set over it.
func runAllOnMutation(t *testing.T, dir, importPath string) []lint.Diagnostic {
	t.Helper()
	l := newLoader(t)
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("mutated %s no longer type-checks: %v", importPath, err)
	}
	runner := &lint.Runner{Analyzers: All()}
	diags, err := runner.Run([]*lint.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// requireFinding asserts that one of the diagnostics comes from the named
// analyzer and mentions fragment.
func requireFinding(t *testing.T, diags []lint.Diagnostic, analyzer, fragment string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, fragment) {
			return
		}
	}
	t.Errorf("no %s finding mentioning %q; diagnostics: %v", analyzer, fragment, diags)
}

// TestWallClockInjectionCaught pins the other acceptance criterion:
// adding a time.Now() call to internal/netsim makes arestlint fail. The
// real netsim sources are copied verbatim next to one injected file.
func TestWallClockInjectionCaught(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyGoFiles(t, filepath.Join(root, "internal", "netsim"), dir)
	inject := `package netsim

import "time"

// wallClockDrift is the mutation: a contract package reading the clock.
func wallClockDrift() time.Time { return time.Now() }
`
	if err := os.WriteFile(filepath.Join(dir, "zz_mutation.go"), []byte(inject), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := runAllOnMutation(t, dir, "arest/internal/netsim")
	requireFinding(t, diags, "nowallclock", "time.Now")
}

// TestCtxEntryInjectionCaught injects a ctx-free exported entry point into
// the real internal/exp package: ctxplumb must reject the boundary.
func TestCtxEntryInjectionCaught(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyGoFiles(t, filepath.Join(root, "internal", "exp"), dir)
	inject := `package exp

// RunZz is the mutation: an exported lifecycle boundary without a context.
func RunZz(n int) int { return n }
`
	if err := os.WriteFile(filepath.Join(dir, "zz_mutation.go"), []byte(inject), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := runAllOnMutation(t, dir, "arest/internal/exp")
	requireFinding(t, diags, "ctxplumb", "RunZz must take context.Context")
}

// TestCtxLoopInjectionCaught injects a cancellation-blind claim loop into
// the real internal/par package: ctxplumb must reject the worker loop.
func TestCtxLoopInjectionCaught(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyGoFiles(t, filepath.Join(root, "internal", "par"), dir)
	inject := `package par

import "sync"

// zzDrain is the mutation: a go-spawned claim loop that never observes
// cancellation.
func zzDrain(ready chan int, fn func(int)) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ready {
			fn(i)
		}
	}()
	wg.Wait()
}
`
	if err := os.WriteFile(filepath.Join(dir, "zz_mutation.go"), []byte(inject), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := runAllOnMutation(t, dir, "arest/internal/par")
	requireFinding(t, diags, "ctxplumb", "never observes ctx cancellation")
}
