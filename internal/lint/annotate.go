package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Annotation directives mark code that carries an extra machine-checked
// contract, beyond the file-level //arest:allow suppression grammar:
//
//	//arest:hotpath file        (anywhere in a file)
//	//arest:hotpath package     (anywhere in the package)
//	    The file / package is on the zero-allocation wire path:
//	    allocation-forcing constructs are forbidden outside cold error
//	    paths (checked by the hotpathalloc analyzer).
//
//	//arest:coldpath <reason>
//	    In a function's doc comment, inside a hotpath scope: exempts the
//	    function (debug formatters, construction-time helpers). The reason
//	    is mandatory, mirroring //arest:allow's audit rule.
//
// Malformed directives are diagnostics: the Runner validates every
// package's annotations (alongside //arest:allow) so a typo fails the
// build instead of silently disabling a check; the consuming analyzer
// re-parses and uses only the well-formed results.
const (
	hotpathPrefix  = "//arest:hotpath"
	coldpathPrefix = "//arest:coldpath"
)

// knownDirectives is every //arest: verb the framework understands;
// collectAllows reports any other //arest: comment as malformed.
var knownDirectives = map[string]bool{
	"allow":    true,
	"hotpath":  true,
	"coldpath": true,
}

// directiveArg matches comment c against the one-word directive prefix and
// returns its trimmed argument text. ok is false when c is a different
// directive (e.g. //arest:hotpathx is not //arest:hotpath).
func directiveArg(c *ast.Comment, prefix string) (arg string, ok bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(c.Text, prefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\r' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// HotPaths is the resolved //arest:hotpath / //arest:coldpath annotation
// state of one package: the scopes the hotpathalloc analyzer walks.
type HotPaths struct {
	// Package is set when any file carries //arest:hotpath package.
	Package bool
	// Files holds filenames marked //arest:hotpath file.
	Files map[string]bool
	// Cold holds functions opted out with //arest:coldpath, with the
	// written reason (already validated non-empty).
	Cold map[*ast.FuncDecl]string
}

// Hot reports whether fn (declared in file) is on the hot path under the
// collected annotations: swept in by a file/package scope and not opted
// out with //arest:coldpath.
func (h *HotPaths) Hot(fn *ast.FuncDecl, file string) bool {
	if _, cold := h.Cold[fn]; cold {
		return false
	}
	return h.Files[file] || h.Package
}

// CollectHotPaths parses the hotpath/coldpath annotations of a package.
// Malformed directives — an //arest:hotpath whose scope is not 'file' or
// 'package', a //arest:coldpath without a reason, outside a function doc
// comment, or outside any hotpath scope — come back as diagnostics.
func CollectHotPaths(fset *token.FileSet, files []*ast.File) (*HotPaths, []Diagnostic) {
	h := &HotPaths{
		Files: map[string]bool{},
		Cold:  map[*ast.FuncDecl]string{},
	}
	var coldDecls []*ast.FuncDecl // h.Cold keys in declaration order
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Analyzer: DirectiveAnalyzerName,
			Pos:      fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}

	for _, f := range files {
		// Coldpath marks in function doc comments are claimed first, so
		// the sweep below can tell a stray one.
		claimed := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				reason, ok := directiveArg(c, coldpathPrefix)
				if !ok {
					continue
				}
				claimed[c] = true
				if reason == "" {
					report(c.Pos(), "//arest:coldpath is missing its written reason: every hot-path exemption must justify itself")
					continue
				}
				h.Cold[fd] = reason
				coldDecls = append(coldDecls, fd)
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if arg, ok := directiveArg(c, hotpathPrefix); ok {
					switch arg {
					case "file":
						h.Files[fset.Position(c.Pos()).Filename] = true
					case "package":
						h.Package = true
					default:
						report(c.Pos(), "//arest:hotpath scope must be 'file' or 'package'; got %q", arg)
					}
				}
				if _, ok := directiveArg(c, coldpathPrefix); ok && !claimed[c] {
					report(c.Pos(), "//arest:coldpath must sit in a function's doc comment")
				}
			}
		}
	}

	// A coldpath mark outside any hot scope excuses nothing: stale, like
	// an unused allow.
	for _, fd := range coldDecls {
		if !h.Files[fset.Position(fd.Pos()).Filename] && !h.Package {
			report(fd.Pos(), "//arest:coldpath on %s excuses nothing: no enclosing //arest:hotpath scope", fd.Name.Name)
		}
	}
	return h, bad
}
