package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Spanend enforces the span lifecycle idiom: every trace span obtained
// from a creating call (sp.Child, Tracer.StartSpan, or any helper
// returning a *trace.Span) must be covered by a `defer v.End()` in the
// same function, placed after the creation. Span.End is nil-tolerant and
// first-call-wins, so the defer is always safe: code that needs to stop
// the clock early (phase spans) keeps its explicit End() and the defer
// becomes a no-op, while every early return — the leak class that
// corrupts /slowlog span trees with never-ended spans — is covered.
//
// Exemptions:
//   - the creating function returns the span (factories such as
//     startEval or newScatterSpan; the *caller* is then checked);
//   - calls to methods named Root (accessors, not creations);
//   - spans stored into struct fields (their owner manages the
//     lifecycle);
//   - sites or whole functions annotated `//reflint:nospanend <reason>`
//     (e.g. EXPLAIN plan trees, which are rendered, never timed).
//
// A span-creating call whose result is discarded entirely can never be
// ended and is reported unconditionally (unless annotated).
var Spanend = &Analyzer{
	Name: "spanend",
	Doc:  "every created trace span needs a dominating defer End() or an explicit exemption",
	Run:  runSpanend,
}

func runSpanend(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanFunc(pass, f, fd, fd.Body)
			// Function literals get their own scope: a defer inside the
			// literal covers creations inside it, and vice versa not.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkSpanFunc(pass, f, fd, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// isSpanType reports whether t is *Span / Span (the trace span type).
func isSpanType(t types.Type) bool { return namedTypeName(t) == "Span" }

// spanResultIndexes returns which results of call are spans.
func spanResultIndexes(pass *Pass, call *ast.CallExpr) []int {
	tv, ok := pass.Info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Root" {
		return nil // accessor, not a creation
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		var out []int
		for i := 0; i < tuple.Len(); i++ {
			if isSpanType(tuple.At(i).Type()) {
				out = append(out, i)
			}
		}
		return out
	}
	if isSpanType(tv.Type) {
		return []int{0}
	}
	return nil
}

// checkSpanFunc checks one function scope (a FuncDecl body or a FuncLit
// body). Creations inside nested literals are skipped here — they are
// visited with their own scope.
func checkSpanFunc(pass *Pass, f *ast.File, fd *ast.FuncDecl, scope *ast.BlockStmt) {
	type creation struct {
		name *ast.Ident
		pos  token.Pos
	}
	var created []creation

	inNested := func(pos token.Pos) bool {
		nested := false
		ast.Inspect(scope, func(n ast.Node) bool {
			if nested {
				return false
			}
			if lit, ok := n.(*ast.FuncLit); ok && lit.Body != scope {
				if lit.Pos() <= pos && pos <= lit.End() {
					nested = true
				}
				return false
			}
			return true
		})
		return nested
	}

	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || inNested(n.Pos()) {
				return true
			}
			for _, i := range spanResultIndexes(pass, call) {
				if i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue // field/index stores: owner-managed lifecycle
				}
				created = append(created, creation{name: id, pos: n.Pos()})
			}
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok || inNested(n.Pos()) {
				return true
			}
			if len(spanResultIndexes(pass, call)) == 0 {
				return true
			}
			if pass.suppressed("nospanend", n.Pos(), fd) {
				return true
			}
			pass.Reportf(n.Pos(),
				"span created in %s is discarded and can never be ended: assign it and defer End(), or annotate //reflint:nospanend <reason>",
				funcDisplayName(fd))
		}
		return true
	})

	for _, c := range created {
		obj := pass.Info.ObjectOf(c.name)
		if obj == nil {
			continue
		}
		if spanCovered(pass, scope, obj, c.pos, inNested) {
			continue
		}
		if pass.suppressed("nospanend", c.pos, fd) {
			continue
		}
		pass.Reportf(c.pos,
			"span %q created in %s has no covering `defer %s.End()`: early returns leak it into the trace tree (End is nil-safe and idempotent; annotate //reflint:nospanend <reason> if the span is intentionally unended)",
			c.name.Name, funcDisplayName(fd), c.name.Name)
	}
}

// spanCovered reports whether the span variable obj is exempt: a
// `defer obj.End()` after the creation in this scope, or obj being
// returned from this scope.
func spanCovered(pass *Pass, scope *ast.BlockStmt, obj types.Object, createdAt token.Pos, inNested func(token.Pos) bool) bool {
	covered := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if covered {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if n.Pos() < createdAt || inNested(n.Pos()) {
				return true
			}
			if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := sel.X.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					covered = true
					return false
				}
			}
		case *ast.ReturnStmt:
			if inNested(n.Pos()) {
				return true
			}
			for _, res := range n.Results {
				returned := false
				ast.Inspect(res, func(rn ast.Node) bool {
					if id, ok := rn.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
						returned = true
						return false
					}
					return true
				})
				if returned {
					covered = true
					return false
				}
			}
		}
		return true
	})
	return covered
}
