package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// DirectiveAnalyzerName attributes diagnostics about the suppression
// directives themselves (malformed or unused //arest:allow comments).
const DirectiveAnalyzerName = "arestlint"

// directivePrefix introduces a suppression comment. The syntax is
//
//	//arest:allow <analyzer> <reason...>
//
// placed anywhere in a file (conventionally next to the code it excuses).
// It silences every finding of <analyzer> in that file. The reason is
// mandatory: a suppression without a written justification is itself a
// build-failing finding, so the contract's escape hatch always leaves an
// audit trail.
const directivePrefix = "//arest:allow"

// allowDirective is one parsed //arest:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	file     string
	pos      token.Position
	used     bool
}

// allowSet is every well-formed directive of one package.
type allowSet []*allowDirective

// match returns the first unexpired directive suppressing analyzer
// findings in file, or nil.
func (s allowSet) match(analyzer, file string) *allowDirective {
	for _, a := range s {
		if a.analyzer == analyzer && a.file == file {
			return a
		}
	}
	return nil
}

// collectAllows parses the //arest:allow directives of every file in the
// package. Malformed directives — a missing analyzer name, a name not in
// known, or a missing reason — are returned as diagnostics so the CLI
// fails on them.
func collectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) (allowSet, []Diagnostic) {
	var allows allowSet
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Analyzer: DirectiveAnalyzerName,
			Pos:      fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if verb, ok := unknownDirective(c.Text); ok {
					report(c.Pos(), "unknown directive //arest:%s: the framework understands only allow", verb)
					continue
				}
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				// CRLF sources leave a trailing \r on line comments; treat it
				// as the separator/terminator it is, not as directive text.
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\r' {
					continue // e.g. //arest:allowed — not our directive
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					report(c.Pos(), "malformed directive: want //arest:allow <analyzer> <reason>")
				case !known[name]:
					report(c.Pos(), "//arest:allow names unknown analyzer %q", name)
				case reason == "":
					report(c.Pos(), "//arest:allow %s is missing its written reason: every suppression must justify itself", name)
				default:
					allows = append(allows, &allowDirective{
						analyzer: name,
						reason:   reason,
						file:     fset.Position(c.Pos()).Filename,
						pos:      fset.Position(c.Pos()),
					})
				}
			}
		}
	}
	return allows, bad
}

// summary renders the directive for suppressed-diagnostic reporting:
// where it sits and the written justification it carries.
func (a *allowDirective) summary() string {
	return fmt.Sprintf("%s:%d (%s)", a.pos.Filename, a.pos.Line, a.reason)
}

// unknownDirective reports a //arest: comment whose verb is not allow, the
// framework's only directive — a typo'd or retired directive must fail the
// build, not silently check nothing.
func unknownDirective(text string) (verb string, unknown bool) {
	rest, ok := strings.CutPrefix(text, "//arest:")
	if !ok {
		return "", false
	}
	verb = rest
	if i := strings.IndexAny(rest, " \t\r"); i >= 0 {
		verb = rest[:i]
	}
	return verb, verb != "" && verb != "allow"
}
