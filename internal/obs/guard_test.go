package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNilGuardDeletionCaught strips the nil-receiver guard of one method
// at a time and requires TestObsNilSafety to fail on every stripped copy,
// so no guard in this package is unobserved. The copies are packages of
// one temporary module, and a single go test run builds and runs them
// all; the package is stdlib-only, so the module needs no requirements.
func TestNilGuardDeletionCaught(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	srcs, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, f := range srcs {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	nilTest, err := os.ReadFile("nilsafe_test.go")
	if err != nil {
		t.Fatal(err)
	}

	type site struct {
		file, name string
		decl       int
	}
	var sites []site
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() && guardAt(fd) >= 0 {
				recv := fd.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
				sites = append(sites, site{file, recv + "." + fd.Name.Name, i})
			}
		}
	}
	if len(sites) < 17 {
		t.Fatalf("found only %d guarded methods; expected the full instrument and watchdog surface", len(sites))
	}

	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module obsmut\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		dir := filepath.Join(mod, fmt.Sprintf("m%02d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if file == s.file {
				src = stripGuard(t, file, src, s.decl)
			}
			if err := os.WriteFile(filepath.Join(dir, file), src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "nilsafe_test.go"), nilTest, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The stripped copies make go test exit non-zero by design; what counts
	// is the verdict test2json reports for TestObsNilSafety in each copy.
	cmd := exec.Command(goBin, "test", "-json", "-run", "^TestObsNilSafety$", "./...")
	cmd.Dir = mod
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	out, _ := cmd.CombinedOutput()
	verdict, output := map[string]string{}, map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue // build errors may arrive as plain text
		}
		output[ev.Package] += ev.Output
		if ev.Test == "TestObsNilSafety" && (ev.Action == "pass" || ev.Action == "fail") {
			verdict[ev.Package] = ev.Action
		}
	}

	for i, s := range sites {
		pkg := fmt.Sprintf("obsmut/m%02d", i)
		t.Run(s.name, func(t *testing.T) {
			if verdict[pkg] == "fail" {
				return
			}
			detail := output[pkg]
			if detail == "" {
				detail = string(out)
			}
			t.Errorf("deleting the nil guard of %s went unobserved: TestObsNilSafety verdict %q\n%s", s.name, verdict[pkg], detail)
		})
	}
}

// guardAt returns the index of fd's nil-receiver guard, the first
// statement of the form `if recv == nil` or `if recv != nil`, or -1.
func guardAt(fd *ast.FuncDecl) int {
	if fd.Recv == nil || fd.Body == nil || len(fd.Recv.List[0].Names) != 1 {
		return -1
	}
	if _, ok := fd.Recv.List[0].Type.(*ast.StarExpr); !ok {
		return -1
	}
	recv := fd.Recv.List[0].Names[0].Name
	for i, stmt := range fd.Body.List {
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok {
			continue
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL && cond.Op != token.NEQ {
			continue
		}
		x, xok := cond.X.(*ast.Ident)
		y, yok := cond.Y.(*ast.Ident)
		if xok && yok && x.Name == recv && y.Name == "nil" {
			return i
		}
	}
	return -1
}

// stripGuard returns src with the guard of the method at declaration
// index decl removed: an `if recv == nil` early exit is deleted, and an
// `if recv != nil` wrap is replaced by its body.
func stripGuard(t *testing.T, file string, src []byte, decl int) []byte {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Decls[decl].(*ast.FuncDecl)
	i := guardAt(fd)
	ifs := fd.Body.List[i].(*ast.IfStmt)
	var keep []ast.Stmt
	if ifs.Cond.(*ast.BinaryExpr).Op == token.NEQ {
		keep = ifs.Body.List
	}
	fd.Body.List = append(append(append([]ast.Stmt{}, fd.Body.List[:i]...), keep...), fd.Body.List[i+1:]...)
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
