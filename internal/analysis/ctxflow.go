package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow enforces context plumbing through the answering path, the
// invariant PR 1 retrofitted by hand: cancellation (client disconnect,
// server shutdown) and the shared evaluation deadline both ride on a
// context.Context threaded from the HTTP layer down into the executor.
//
// Rules:
//
//  1. An exported function or method named Answer*/Eval* must take a
//     context.Context. Anything else hides an uncancellable evaluation
//     behind an innocent-looking name; there are no context-less
//     compatibility wrappers — callers without a context of their own
//     pass context.Background() themselves.
//
//  2. An exported Answer*/Eval* function whose name ends in Context must
//     take the context as its first parameter (after the receiver).
//
//  3. context.Background() / context.TODO() must not be called outside
//     package main and test files. Other sites need
//     `//reflint:ctxbg <reason>`.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "Answer*/Eval* entry points accept a context; context.Background only in main and tests",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkEntryPoint(pass, fd)
			checkBackgroundCalls(pass, f, fd)
		}
	}
	return nil
}

func isEntryPointName(name string) bool {
	return strings.HasPrefix(name, "Answer") || strings.HasPrefix(name, "Eval")
}

// hasContextParam reports whether the function type takes a
// context.Context, and whether it is the first parameter.
func hasContextParam(pass *Pass, ft *ast.FuncType) (has, first bool) {
	if ft.Params == nil {
		return false, false
	}
	idx := 0
	for _, field := range ft.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if ok && isContextType(tv.Type) {
			return true, idx == 0
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		idx += n
	}
	return false, false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func checkEntryPoint(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if !fd.Name.IsExported() || !isEntryPointName(name) {
		return
	}
	has, first := hasContextParam(pass, fd.Type)
	if strings.HasSuffix(name, "Context") {
		if !has || !first {
			pass.Reportf(fd.Pos(),
				"%s must take a context.Context as its first parameter", funcDisplayName(fd))
		}
		return
	}
	if has {
		return
	}
	if pass.suppressed("ctxbg", fd.Pos(), fd) {
		return
	}
	pass.Reportf(fd.Pos(),
		"exported entry point %s takes no context.Context: evaluations through it cannot be canceled",
		funcDisplayName(fd))
}

func checkBackgroundCalls(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if obj, isPkg := pass.Info.ObjectOf(pkg).(*types.PkgName); !isPkg || obj.Imported().Path() != "context" {
			return true
		}
		if pass.suppressed("ctxbg", call.Pos(), fd) {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() in %s detaches this call chain from cancellation: thread the caller's ctx through, or annotate //reflint:ctxbg <reason>",
			sel.Sel.Name, funcDisplayName(fd))
		return true
	})
}
