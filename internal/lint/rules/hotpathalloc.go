package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"arest/internal/lint"
)

// HotPathAlloc builds the hotpathalloc analyzer: code inside an
// //arest:hotpath scope is the zero-allocation wire path (DESIGN.md §11 —
// the PR 6 AppendMarshal/UnmarshalInto codecs and the pooled Send/Trace
// scratch), and its AllocsPerRun budgets must hold by construction, not
// only under the benchmark gates. Inside a hot function the analyzer
// forbids the constructs that force the compiler to allocate:
//
//   - fmt.* calls (formatting boxes every operand);
//   - non-constant string concatenation (+ / +=);
//   - explicit boxing into an interface: conversions like any(x) and var
//     declarations with an explicit interface type and a concrete
//     initializer;
//   - map and slice composite literals;
//   - function literals capturing enclosing variables (closure header
//     escapes to the heap).
//
// Cold control flow is exempt so error handling stays idiomatic: any
// return statement whose result includes an error-typed expression, and
// the arguments of panic calls, may allocate — those paths execute once
// per failure, not per packet. Whole functions opt out with
// //arest:coldpath <reason> (String() debug formatters, construction-time
// helpers). Only function bodies are checked: package-level initializers
// (pools, tables) run once at startup. _test.go files are always exempt:
// under -tests a file/package hotpath scope would otherwise sweep in test
// code, which exercises the wire path without being on it.
func HotPathAlloc() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "hotpathalloc",
		Doc:  "forbid allocation-forcing constructs inside //arest:hotpath scopes",
		Run:  runHotPathAlloc,
	}
}

func runHotPathAlloc(pass *lint.Pass) error {
	hot, _ := lint.CollectHotPaths(pass.Fset, pass.Files) // malformed directives reported by the Runner
	if !hot.Package && len(hot.Files) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		file := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(file, "_test.go") {
			continue // tests drive the hot path; they do not run on it
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hot.Hot(fd, file) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
	return nil
}

// checkHotBody walks one hot function body, pruning cold subtrees.
func checkHotBody(pass *lint.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if returnsError(pass, n) {
				return false // failure path: allocation is once-per-error
			}
		case *ast.CallExpr:
			if isBuiltinNamed(pass, n, "panic") {
				return false // unreachable-by-contract: message may allocate
			}
			checkHotCall(pass, n)
		case *ast.BinaryExpr:
			checkHotConcat(pass, n)
		case *ast.AssignStmt:
			checkHotConcatAssign(pass, n)
		case *ast.CompositeLit:
			checkHotComposite(pass, n)
		case *ast.GenDecl:
			checkHotVarDecl(pass, n)
		case *ast.FuncLit:
			checkHotFuncLit(pass, fd, n)
			return false // the literal's own body runs off the hot path's frame
		}
		return true
	})
}

// returnsError reports whether any result expression of the return is
// error-typed (the cold-failure-path signature).
func returnsError(pass *lint.Pass, ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		tv, ok := pass.Info.Types[res]
		if !ok || tv.Type == nil {
			continue
		}
		if types.Implements(tv.Type, errorInterface) {
			return true
		}
	}
	return false
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isBuiltinNamed reports whether call invokes the named builtin.
func isBuiltinNamed(pass *lint.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

// checkHotCall flags fmt.* calls and explicit conversions into interface
// types.
func checkHotCall(pass *lint.Pass, call *ast.CallExpr) {
	if pkg, name, ok := pass.CalleeIn(call); ok && pkg == "fmt" {
		pass.Report(call.Pos(),
			"fmt.%s on the hot path boxes its operands and allocates (DESIGN.md §11); format off the wire path or mark the function //arest:coldpath", name)
		return
	}
	// Explicit conversion T(x): Fun is a type expression.
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	if !types.IsInterface(tv.Type) {
		return
	}
	argT := pass.Info.Types[call.Args[0]].Type
	if argT == nil || types.IsInterface(argT) {
		return // interface-to-interface: no new box
	}
	pass.Report(call.Pos(),
		"conversion to %s on the hot path boxes a concrete value onto the heap (DESIGN.md §11)", tv.Type.String())
}

// checkHotConcat flags non-constant string concatenation expressions.
func checkHotConcat(pass *lint.Pass, be *ast.BinaryExpr) {
	if be.Op != token.ADD {
		return
	}
	tv, ok := pass.Info.Types[be]
	if !ok || tv.Type == nil || tv.Value != nil {
		return // not typed, or folded to a constant at compile time
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		pass.Report(be.Pos(),
			"string concatenation on the hot path allocates (DESIGN.md §11); use an append codec or a pooled buffer")
	}
}

// checkHotConcatAssign flags s += t on strings.
func checkHotConcatAssign(pass *lint.Pass, as *ast.AssignStmt) {
	if as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 {
		return
	}
	tv, ok := pass.Info.Types[as.Lhs[0]]
	if !ok || tv.Type == nil {
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		pass.Report(as.Pos(),
			"string += on the hot path allocates a new backing array every call (DESIGN.md §11)")
	}
}

// checkHotComposite flags map and slice composite literals; struct and
// array literals stay legal (stack-allocatable).
func checkHotComposite(pass *lint.Pass, cl *ast.CompositeLit) {
	tv, ok := pass.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Report(cl.Pos(),
			"map literal on the hot path allocates (DESIGN.md §11); hoist it to a package-level table or pooled scratch")
	case *types.Slice:
		pass.Report(cl.Pos(),
			"slice literal on the hot path allocates its backing array (DESIGN.md §11); reuse pooled scratch")
	}
}

// checkHotVarDecl flags `var x I = concrete` declarations whose explicit
// interface type boxes a concrete initializer.
func checkHotVarDecl(pass *lint.Pass, gd *ast.GenDecl) {
	if gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || vs.Type == nil || len(vs.Values) == 0 {
			continue
		}
		tv, ok := pass.Info.Types[vs.Type]
		if !ok || tv.Type == nil || !types.IsInterface(tv.Type) {
			continue
		}
		for _, v := range vs.Values {
			vt := pass.Info.Types[v].Type
			if vt == nil || types.IsInterface(vt) {
				continue
			}
			if b, ok := vt.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
				continue
			}
			pass.Report(vs.Pos(),
				"var with interface type %s boxes a concrete value on the hot path (DESIGN.md §11)", tv.Type.String())
			break
		}
	}
}

// checkHotFuncLit flags function literals that capture variables of the
// enclosing function: the capture forces a heap-allocated closure header
// (and escapes the captured locals).
func checkHotFuncLit(pass *lint.Pass, fd *ast.FuncDecl, fl *ast.FuncLit) {
	captured := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared in the enclosing function but outside the
		// literal itself.
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < fl.Pos() || v.Pos() > fl.End()) {
			captured = v.Name()
			return false
		}
		return true
	})
	if captured != "" {
		pass.Report(fl.Pos(),
			"closure capturing %q on the hot path heap-allocates its environment (DESIGN.md §11); pass state explicitly or hoist the function", captured)
	}
}
