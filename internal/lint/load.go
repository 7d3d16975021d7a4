package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit analyzers run on.
type Package struct {
	// Path is the package's import path ("arest/internal/netsim").
	Path string
	// Dir is the directory the files were parsed from.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader enumerates and type-checks module packages using only the
// standard library: go/build for file selection (honouring build
// constraints), go/parser for syntax, go/types for checking. Imports that
// resolve inside the module are themselves type-checked from source;
// stdlib imports come from compiler export data via importer.Default().
// The module is dependency-free (stdlib-only), so nothing else can occur.
type Loader struct {
	// Root is the absolute module root (directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	// IncludeTests widens loading to _test.go files. In-package test
	// files are type-checked together with the package they test (as a
	// separate cached variant), and external test files (package foo_test)
	// load as their own package. Imports BETWEEN packages resolve to the
	// unaugmented variant: in-package test files cannot add API that
	// other packages consume, and resolving them unaugmented keeps
	// test-only imports from creating spurious cycles. The one exception
	// mirrors go test: inside an external test package, foo and every
	// module package that imports it resolve against foo's augmented
	// variant, so a value from such a package can be passed to an
	// export_test.go accessor.
	IncludeTests bool

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
}

// NewLoader creates a loader for the module rooted at root, reading the
// module path from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Root:   abs,
		Module: mod,
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		cache:  make(map[string]*Package),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// modulePath extracts the module declaration from a go.mod file. A full
// modfile parser is unnecessary: the directive is a single line.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest != "" {
				return strings.Trim(rest, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod — how tests and the CLI locate the module when invoked from a
// package subdirectory.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// LoadAll loads every package under the module root (the "./..." pattern):
// each directory containing buildable non-test Go files, skipping testdata
// trees and hidden or underscore-prefixed directories. Results are sorted
// by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadMode(ip, dir, l.IncludeTests)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue // empty directory (or test-only without -tests)
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
		if l.IncludeTests {
			xpkg, err := l.loadXTest(ip, dir)
			if err != nil {
				return nil, err
			}
			if xpkg != nil {
				pkgs = append(pkgs, xpkg)
			}
		}
	}
	return pkgs, nil
}

// LoadDir type-checks the single package in dir under the given import
// path. dir may live outside the module root (the mutation tests exploit
// this): its own files are parsed from dir while any intra-module imports
// still resolve against the loader's root. Honours IncludeTests for the
// package's own in-package test files.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.loadMode(importPath, dir, l.IncludeTests)
}

// load is the import-resolution entry point: always the unaugmented
// (non-test) variant, so package-to-package edges never run through test
// files.
func (l *Loader) load(importPath, dir string) (*Package, error) {
	return l.loadMode(importPath, dir, false)
}

// loadMode parses and type-checks one directory as importPath, caching per
// (import path, variant) so diamond imports check once. withTests folds
// the in-package _test.go files into the package.
func (l *Loader) loadMode(importPath, dir string, withTests bool) (*Package, error) {
	key := importPath
	if withTests {
		key += " [tests]"
	}
	return l.loadVariant(key, importPath, dir, withTests, (*loaderImporter)(l))
}

// loadVariant is loadMode with the cache key and the importer for the
// package's own imports made explicit.
func (l *Loader) loadVariant(key, importPath, dir string, withTests bool, imp types.Importer) (*Package, error) {
	if p, ok := l.cache[key]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if withTests {
		names = append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
	}
	if len(names) == 0 {
		// ImportDir reports test-only directories as buildable; without
		// their test files there is nothing to check.
		return nil, &build.NoGoError{Dir: dir}
	}
	files, err := l.parseFiles(dir, names)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[key] = pkg
	return pkg, nil
}

// loadXTest loads dir's external test package (package foo_test) as its
// own package named importPath_test, or nil when the directory has no
// external test files. The base import path resolves to the test-augmented
// variant — external tests may use identifiers that in-package test files
// declare — while every other import stays unaugmented.
func (l *Loader) loadXTest(importPath, dir string) (*Package, error) {
	xpath := importPath + "_test"
	if p, ok := l.cache[xpath]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	if len(bp.XTestGoFiles) == 0 {
		return nil, nil
	}
	files, err := l.parseFiles(dir, bp.XTestGoFiles)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: &xtestImporter{l: l, base: importPath, baseDir: dir}}
	tpkg, err := conf.Check(xpath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", xpath, err)
	}
	pkg := &Package{Path: xpath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[xpath] = pkg
	return pkg, nil
}

// parseFiles parses the named files of one directory with comments.
func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// loaderImporter adapts the Loader into a types.Importer: module-local
// import paths are mapped to directories under Root and checked from
// source; everything else is treated as stdlib and resolved from export
// data.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	dir, ok := l.moduleDir(path)
	if !ok {
		return l.std.Import(path)
	}
	pkg, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// moduleDir maps a module-local import path to its directory; ok is false
// for any other path (the stdlib).
func (l *Loader) moduleDir(path string) (dir string, ok bool) {
	if path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
		return "", false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel)), true
}

// xtestImporter resolves imports for an external test package as go test
// does: the package under test maps to its test-augmented variant, module
// packages that import it (directly or transitively) are re-checked
// against that variant, and everything else goes through the normal
// (unaugmented) resolution.
type xtestImporter struct {
	l       *Loader
	base    string
	baseDir string
}

func (xi *xtestImporter) Import(path string) (*types.Package, error) {
	if path == xi.base {
		pkg, err := xi.l.loadMode(xi.base, xi.baseDir, true)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	plain, err := (*loaderImporter)(xi.l).Import(path)
	dir, local := xi.l.moduleDir(path)
	if err != nil || !local || !importsPath(plain, xi.base, map[*types.Package]bool{}) {
		return plain, err
	}
	pkg, err := xi.l.loadVariant(path+" ["+xi.base+".test]", path, dir, false, xi)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// importsPath reports whether pkg imports path, directly or transitively.
func importsPath(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return true
		}
		if !seen[imp] {
			seen[imp] = true
			if importsPath(imp, path, seen) {
				return true
			}
		}
	}
	return false
}
