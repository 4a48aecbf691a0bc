// Package ctxflow enforces context propagation through the query stack.
//
// PR 1's hardening contract is that cancellation reaches every node read:
// each query API has a ...Context variant and the context is threaded all
// the way down. Two mistakes silently break that contract without
// breaking any test: a function that already receives a ctx but calls
// context.Background()/context.TODO() (detaching the subtree from the
// caller's deadline), and a function that receives a ctx but calls the
// context-less variant of a callee whose FooContext sibling exists. Both
// are flagged here.
//
// Functions without a context parameter are exempt — they are the
// documented no-ctx compatibility wrappers, whose context.Background()
// call is the designed API boundary.
package ctxflow

import (
	"go/ast"
	"go/types"

	"mstsearch/internal/analysis"
)

// Analyzer is the ctxflow invariant check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "functions receiving a context.Context must pass it on: no " +
		"context.Background/TODO, and no calling Foo when FooContext exists",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasCtxParam(pass.TypesInfo, fd) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

// hasCtxParam reports whether the function declares a context.Context
// parameter.
func hasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if callee.Pkg() != nil && callee.Pkg().Path() == "context" {
			if callee.Name() == "Background" || callee.Name() == "TODO" {
				pass.Reportf(call.Pos(),
					"context.%s inside %s, which already receives a context; pass the caller's context through",
					callee.Name(), fd.Name.Name)
			}
			return true
		}
		if ctxVariant := contextSibling(callee); ctxVariant != "" {
			pass.Reportf(call.Pos(),
				"%s has a context-aware sibling %s; call it and pass the context (function %s receives one)",
				callee.Name(), ctxVariant, fd.Name.Name)
		}
		return true
	})
}

// calleeFunc resolves the called function or method, or nil for dynamic
// calls, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// contextSibling returns the name of a FooContext sibling of the callee —
// a function or method in the same scope whose name is the callee's plus
// "Context" and whose first parameter is a context.Context — or "".
func contextSibling(fn *types.Func) string {
	name := fn.Name()
	if len(name) >= len("Context") && name[len(name)-len("Context"):] == "Context" {
		return "" // already the context-aware variant
	}
	want := name + "Context"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		// Method: look for a sibling method on the receiver's named type.
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() == want && takesContextFirst(m) {
				return want
			}
		}
		return ""
	}
	// Package-level function: look in the defining package's scope.
	if fn.Pkg() == nil {
		return ""
	}
	if obj, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok && takesContextFirst(obj) {
		return want
	}
	return ""
}

func takesContextFirst(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}
