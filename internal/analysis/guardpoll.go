package analysis

import (
	"go/ast"
	"go/types"
)

// Guardpoll enforces the executor's cancellation invariant: every row
// loop in package exec must poll the evaluation guard, or a cancel /
// timeout silently returns a full — possibly enormous — result, the
// failure mode the paper's Example 1 (a 318,096-CQ UCQ reformulation)
// makes catastrophic.
//
// A loop is row-shaped, and therefore must poll, when any of:
//
//  1. it ranges over a slice of query.CQ or query.Fragment (per-CQ /
//     per-fragment evaluation loops);
//  2. its condition reads a Relation's length (X.Len() or X.rows with X
//     a Relation) — the materialized-row loops of scans and joins;
//  3. it is an unconditional `for {}` (worker loops);
//  4. its condition calls the builtin len on a slice (greedy join-order
//     loops);
//  5. its body directly (not inside a nested loop or function literal)
//     appends rows via Relation.Append.
//
// Independently, every function literal taking a dict.Triple or query.CQ
// parameter is a per-row / per-CQ callback and must poll somewhere in its
// body (storage.Store.Each and the streaming-UCQ enumerators).
//
// A poll is any call — or any forwarding as a call argument, as in
// dst.insertAll(rel, g.err) — of a niladic func() error value: g.err, a
// check parameter, and friends. A row loop must poll *directly*: a poll
// inside a nested loop or callback satisfies only that inner scope.
// Loops that are provably bounded may be annotated
// `//reflint:noguard <reason>` instead.
var Guardpoll = &Analyzer{
	Name: "guardpoll",
	Doc:  "row loops in the executor must poll the evaluation guard (g.err / *Check)",
	Run:  runGuardpoll,
}

// guardpollPackages names the packages whose loops carry the invariant.
var guardpollPackages = map[string]bool{"exec": true}

func runGuardpoll(pass *Pass) error {
	if !guardpollPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				g := &guardpollCheck{pass: pass, file: f}
				g.checkLoop(n)
			case *ast.FuncLit:
				g := &guardpollCheck{pass: pass, file: f}
				g.checkCallback(n)
			}
			return true
		})
	}
	return nil
}

type guardpollCheck struct {
	pass *Pass
	file *ast.File
}

func (g *guardpollCheck) checkLoop(loop ast.Node) {
	why := g.rowShaped(loop)
	if why == "" {
		return
	}
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	if g.polls(body) {
		return
	}
	fn := enclosingFunc(g.file, loop.Pos())
	if g.pass.suppressed("noguard", loop.Pos(), fn) {
		return
	}
	g.pass.Reportf(loop.Pos(),
		"row loop in %s (%s) does not poll the evaluation guard: call g.err()/check() every checkEvery rows, forward it via a *Check variant, or annotate //reflint:noguard <reason>",
		funcDisplayName(fn), why)
}

// callbackKind classifies a function literal as a per-row / per-CQ
// callback ("" otherwise). Shared with hotalloc: the same literals that
// must poll the guard are also the per-row allocation surface.
func (g *guardpollCheck) callbackKind(lit *ast.FuncLit) string {
	kind := ""
	for _, field := range lit.Type.Params.List {
		tv, ok := g.pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		switch namedTypeName(tv.Type) {
		case "Triple":
			kind = "per-row (Triple) callback"
		case "CQ":
			kind = "per-CQ callback"
		}
	}
	return kind
}

// checkCallback enforces polling inside per-row (dict.Triple) and per-CQ
// (query.CQ) callbacks.
func (g *guardpollCheck) checkCallback(lit *ast.FuncLit) {
	kind := g.callbackKind(lit)
	if kind == "" {
		return
	}
	if g.pollsAnywhere(lit.Body) {
		return
	}
	fn := enclosingFunc(g.file, lit.Pos())
	if g.pass.suppressed("noguard", lit.Pos(), fn) {
		return
	}
	g.pass.Reportf(lit.Pos(),
		"%s in %s does not poll the evaluation guard: call g.err()/check() every checkEvery rows or annotate //reflint:noguard <reason>",
		kind, funcDisplayName(fn))
}

// rowShaped classifies a loop; the non-empty return is the matching rule,
// used in the diagnostic.
func (g *guardpollCheck) rowShaped(loop ast.Node) string {
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if tv, ok := g.pass.Info.Types[l.X]; ok && tv.Type != nil {
			if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
				switch namedTypeName(sl.Elem()) {
				case "CQ":
					return "ranges over CQs"
				case "Fragment":
					return "ranges over fragments"
				}
			}
		}
		if g.appendsDirectly(l.Body) {
			return "appends Relation rows"
		}
		return ""
	case *ast.ForStmt:
		if l.Cond == nil {
			return "unbounded for {}"
		}
		why := ""
		ast.Inspect(l.Cond, func(n ast.Node) bool {
			if why != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Len" {
					if g.isRelation(sel.X) {
						why = "bounded by Relation.Len"
						return false
					}
				}
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "len" && len(n.Args) == 1 {
					if tv, ok := g.pass.Info.Types[n.Args[0]]; ok && tv.Type != nil {
						if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
							why = "bounded by a slice length"
							return false
						}
					}
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "rows" && g.isRelation(n.X) {
					why = "bounded by Relation rows"
					return false
				}
			}
			return true
		})
		if why != "" {
			return why
		}
		if g.appendsDirectly(l.Body) {
			return "appends Relation rows"
		}
		return ""
	}
	return ""
}

func (g *guardpollCheck) isRelation(e ast.Expr) bool {
	tv, ok := g.pass.Info.Types[e]
	return ok && namedTypeName(tv.Type) == "Relation"
}

// appendsDirectly reports whether the loop body calls Relation.Append
// outside any nested loop or function literal — the "producing rows"
// signature of rule 5.
func (g *guardpollCheck) appendsDirectly(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false // nested loops/callbacks are checked on their own
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Append" && g.isRelation(sel.X) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// polls reports whether the loop body contains a *direct* guard poll —
// one not hidden inside a nested loop or function literal. Nested loops
// and callbacks carry their own obligation; crediting their polls to the
// outer loop would let an outer-loop poll be deleted unnoticed whenever
// an inner operator still checks.
func (g *guardpollCheck) polls(body *ast.BlockStmt) bool {
	found := false
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
				return false
			}
			if g.isPoll(n) {
				found = true
				return false
			}
			return true
		})
	}
	return found
}

// pollsAnywhere is the callback variant: a poll anywhere in the body
// counts, nested structure included.
func (g *guardpollCheck) pollsAnywhere(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if g.isPoll(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isPoll reports whether n is a guard poll: a call of — or a call
// forwarding — a niladic func() error value.
func (g *guardpollCheck) isPoll(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	// Direct poll: calling a func() error value.
	if tv, ok := g.pass.Info.Types[call.Fun]; ok && tv.Type != nil && len(call.Args) == 0 {
		if isNiladicErrorFunc(tv.Type) && !g.isContextErr(call.Fun) {
			return true
		}
	}
	// Forwarded poll: passing a func() error value (g.err, check) as an
	// argument, e.g. dst.insertAll(rel, g.err).
	for _, arg := range call.Args {
		if tv, ok := g.pass.Info.Types[arg]; ok && tv.Type != nil {
			if isNiladicErrorFunc(tv.Type) && !g.isContextErr(arg) {
				return true
			}
		}
	}
	return false
}

// isContextErr excludes ctx.Err from counting as a guard poll: the guard
// folds the context *and* the wall-clock deadline; polling only ctx.Err
// would let a Budget.Timeout pass unnoticed.
func (g *guardpollCheck) isContextErr(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Err" {
		return false
	}
	tv, ok := g.pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
