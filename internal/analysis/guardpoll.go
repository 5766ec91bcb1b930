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
//     appends rows via Relation.Append or Relation.extend.
//
// Independently, every function literal taking a dict.Triple or query.CQ
// parameter is a per-row / per-CQ callback and must poll somewhere in its
// body (storage.Store.Each and the streaming-UCQ enumerators).
//
// Operators also move rows a batch at a time: a batch is an index block (a
// function literal taking a []dict.Triple parameter — Source.EachRun's
// callback) or a Relation chunk (a loop whose condition calls
// Relation.chunks). Both must poll directly, once per batch, and a batch
// callback is hot for hotalloc like a per-row one. A loop over one batch —
// its range or condition reads the callback's block parameter, or a
// variable the chunk loop's body reads off Relation.chunk — is compliant
// without a poll of its own when the batch scope it sits directly in polls:
// the batch bounds the rows between polls. Any other loop inside a batch
// scope keeps its own obligation, so a fan-out loop emitting the matches of
// one probe row must still poll every checkEvery rows.
//
// A poll is any call — or any forwarding as a call argument, as in
// dst.insert(rel, nil, nil, g.err) — of a niladic func() error value: g.err, a
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
		g := &guardpollCheck{pass: pass, file: f}
		var stack []ast.Node // the nodes enclosing the one inspected, outermost first
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				g.checkLoop(n, stack)
			case *ast.FuncLit:
				g.checkCallback(n)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

type guardpollCheck struct {
	pass *Pass
	file *ast.File
}

func (g *guardpollCheck) checkLoop(loop ast.Node, enclosing []ast.Node) {
	why := g.rowShaped(loop)
	if why == "" {
		return
	}
	if g.polls(loopBody(loop)) || g.overPolledBatch(loop, enclosing) {
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

// loopBody returns a for or range loop's body.
func loopBody(loop ast.Node) *ast.BlockStmt {
	if l, ok := loop.(*ast.ForStmt); ok {
		return l.Body
	}
	return loop.(*ast.RangeStmt).Body
}

// batchCallback is callbackKind's kind for a function literal taking a block
// of triples.
const batchCallback = "per-batch ([]Triple) callback"

// callbackKind classifies a function literal as a per-row, per-batch or
// per-CQ callback ("" otherwise). Shared with hotalloc: the same literals
// that must poll the guard are also the per-row allocation surface.
func (g *guardpollCheck) callbackKind(lit *ast.FuncLit) string {
	kind := ""
	for _, field := range lit.Type.Params.List {
		tv, ok := g.pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		if isTripleBlock(tv.Type) {
			kind = batchCallback
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

// isTripleBlock reports whether t is a slice of Triple: an index block.
func isTripleBlock(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	return ok && namedTypeName(sl.Elem()) == "Triple"
}

// checkCallback enforces polling inside per-row (dict.Triple) and per-CQ
// (query.CQ) callbacks, and directly — once per batch — inside per-batch
// ([]dict.Triple) ones.
func (g *guardpollCheck) checkCallback(lit *ast.FuncLit) {
	kind := g.callbackKind(lit)
	if kind == "" {
		return
	}
	if kind == batchCallback && g.polls(lit.Body) || kind != batchCallback && g.pollsAnywhere(lit.Body) {
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

// overPolledBatch reports whether loop is a loop over one batch sitting
// directly — no loop or function literal between — in a batch scope that
// polls directly: a batch callback whose block parameter the loop's range or
// condition reads, or a chunk loop whose body defines, from a
// Relation.chunk call, a variable the loop's range or condition reads.
func (g *guardpollCheck) overPolledBatch(loop ast.Node, enclosing []ast.Node) bool {
	var scope ast.Node
	for i := len(enclosing) - 1; i >= 0 && scope == nil; i-- {
		switch enclosing[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			scope = enclosing[i]
		}
	}
	batch := map[types.Object]bool{}
	switch s := scope.(type) {
	case *ast.FuncLit:
		if g.callbackKind(s) != batchCallback || !g.polls(s.Body) {
			return false
		}
		for _, field := range s.Type.Params.List {
			for _, name := range field.Names {
				if obj := g.pass.Info.Defs[name]; obj != nil && isTripleBlock(obj.Type()) {
					batch[obj] = true
				}
			}
		}
	case *ast.ForStmt:
		if !g.isChunkLoop(s) || !g.polls(s.Body) {
			return false
		}
		for _, stmt := range s.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || !g.isRelationCall(as.Rhs[0], "chunk") {
				continue
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && g.pass.Info.Defs[id] != nil {
					batch[g.pass.Info.Defs[id]] = true
				}
			}
		}
	default:
		return false
	}
	var over ast.Node
	switch l := loop.(type) {
	case *ast.ForStmt:
		over = l.Cond
	case *ast.RangeStmt:
		over = l.X
	}
	reads := false
	if over != nil {
		ast.Inspect(over, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && batch[g.pass.Info.Uses[id]] {
				reads = true
			}
			return !reads
		})
	}
	return reads
}

// isChunkLoop reports whether a for loop's condition calls Relation.chunks:
// it visits a relation's rows a chunk at a time.
func (g *guardpollCheck) isChunkLoop(l *ast.ForStmt) bool {
	found := false
	if l.Cond != nil {
		ast.Inspect(l.Cond, func(n ast.Node) bool {
			found = found || g.isRelationCall(n, "chunks")
			return !found
		})
	}
	return found
}

// isRelationCall reports whether n calls the named method on a Relation.
func (g *guardpollCheck) isRelationCall(n ast.Node, method string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == method && g.isRelation(sel.X)
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
		if g.isChunkLoop(l) {
			return "visits Relation chunks"
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

// appendsDirectly reports whether the loop body calls Relation.Append or
// extend outside any nested loop or function literal — the "producing rows"
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
				(sel.Sel.Name == "Append" || sel.Sel.Name == "extend") && g.isRelation(sel.X) {
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
	// argument, e.g. dst.insert(rel, nil, nil, g.err).
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
