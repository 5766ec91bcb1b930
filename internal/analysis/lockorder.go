package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockorder enforces the serving stack's declared lock hierarchy (see
// DESIGN.md §12). Every ranked mutex sits at a level; a goroutine may
// only acquire locks in strictly increasing rank, so no two goroutines
// can ever wait on each other's locks in a cycle:
//
//	server writers  <  viewcache shard / plan cache  <  journal writer
//	  <  admission gate  <  SLO tracker / workload aggregator
//	  <  metrics registry
//
// Three rules, all computed per function over the CFG/dataflow layer
// (cfg.go) — intraprocedural, with deferred unlocks modeled as "held to
// function exit":
//
//  1. ordering: acquiring a lock of rank r while a lock of rank >= r
//     may be held on some path is a (potential) deadlock — including
//     r == r, the self-deadlock / two-instances case;
//  2. no blocking while locked: a channel send/receive, a select
//     without a default clause, ranging over a channel, or a
//     WaitGroup.Wait / Cond.Wait while any ranked lock may be held
//     turns a slow consumer into a lock-held stall that the hierarchy
//     cannot see;
//  3. the *Locked convention: calling a function or method whose name
//     ends in "Locked" requires some ranked lock to be held on *every*
//     path (must-analysis); functions themselves named *Locked inherit
//     their caller's lock and so satisfy the requirement vacuously.
//
// Function literals are analyzed separately: a literal launched by a
// `go` statement starts with no locks (it runs on its own goroutine);
// any other literal (sort.Slice comparators, callbacks invoked in
// place) inherits the lock state at its definition point.
//
// Suppress with `//reflint:lockorder <reason>` only when the violation
// is provably safe (e.g. a lock ordered by a documented external
// invariant the analysis cannot see).
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "ranked mutexes are acquired in increasing rank, never held across blocking ops; *Locked callees require a held lock",
	Run:  runLockorder,
}

// lockRank maps "<pkg>.<Type>.<field>" of every ranked mutex to its
// level in the hierarchy. Keys use package *names* (not import paths)
// so the golden testdata mirrors rank the same way the real tree does.
// Unlisted mutexes (trace.Tracer.mu, dict internals, local locks) are
// outside the hierarchy and unconstrained — add them here the moment
// they can nest with a ranked lock.
var lockRank = map[string]int{
	// Level 0: the HTTP server's writers' mutex, held across a whole update
	// or checkpoint, so below every lock those take. Readers never take it.
	"httpapi.Server.writeMu": 5,
	// Level 1: per-request leaves — short-hold, may be taken while
	// answering with nothing else held, and never call out while held.
	"viewcache.shard.mu":  10,
	"engine.planCache.mu": 11,
	"trace.Tracer.mu":     12,
	"shard.Store.mu":      13,
	// Level 2: the journal writer pair. openMu guards the Record/Close
	// race, mu the write-side state; they are never nested today and
	// adjacent ranks keep it that way in one direction only.
	"journal.Writer.openMu": 20,
	"journal.Writer.mu":     21,
	// Level 3: admission gate.
	"admission.Gate.mu": 30,
	// Level 3b: the durable subsystem. Manager.mu (manifest + size
	// accounting) may one day nest around WAL.mu (staging state), never
	// the reverse; neither is ever held across I/O, fsync, or a channel
	// op — the group-commit protocol stages under mu and hands the
	// batch to the flusher goroutine, which owns all file handles.
	"durable.Manager.mu": 31,
	"durable.WAL.mu":     32,
	// Level 4: per-strategy telemetry rollups.
	"metrics.SLOTracker.mu": 40,
	"journal.Aggregator.mu": 41,
	// Level 5: the metrics registry and its instruments — the global
	// sinks everything above reports into, so they must be acquirable
	// with anything else held.
	"metrics.Registry.mu":     50,
	"metrics.Histogram.mu":    51,
	"metrics.SlowQueryLog.mu": 52,
}

// lockBits assigns each ranked lock key a bit in the dataflow state.
// The order is fixed (sorted keys) so bit positions are deterministic.
var lockBits = func() map[string]uint {
	keys := make([]string, 0, len(lockRank))
	for k := range lockRank {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	m := make(map[string]uint, len(keys))
	for i, k := range keys {
		m[k] = uint(i)
	}
	return m
}()

// virtualCallerLock is the must-state bit seeded into functions named
// *Locked: their contract says the caller holds the right lock.
const virtualCallerLock uint64 = 1 << 63

// lockState is the dataflow fact: which ranked locks may / must be
// held. may drives rules 1 and 2 (any path suffices for a hazard);
// must drives rule 3 (every path must hold a lock).
type lockState struct {
	may  uint64
	must uint64
}

func joinLockState(a, b lockState) lockState {
	return lockState{may: a.may | b.may, must: a.must & b.must}
}

func runLockorder(pass *Pass) error {
	lo := &lockorderCheck{pass: pass}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			entry := lockState{}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				entry = lockState{may: virtualCallerLock, must: virtualCallerLock}
			}
			lo.checkFunc(f, fd.Body, entry)
		}
	}
	return nil
}

type lockorderCheck struct {
	pass *Pass
}

// checkFunc analyzes one function (or function literal) body. Nested
// literals are queued with their seed state and analyzed afterwards so
// each gets its own CFG.
func (lo *lockorderCheck) checkFunc(f *ast.File, body *ast.BlockStmt, entry lockState) {
	cfg := BuildCFG(body)
	type litWork struct {
		lit  *ast.FuncLit
		seed lockState
	}
	var lits []litWork
	transfer := func(n ast.Node, s lockState) lockState {
		inspectShallow(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.DeferStmt); ok && m != n {
				return true // args walked below via the defer handling
			}
			if key, op, ok := lo.lockOp(m); ok {
				bit := uint64(1) << lockBits[key]
				switch op {
				case "Lock", "RLock":
					s.may |= bit
					s.must |= bit
				case "Unlock", "RUnlock":
					s.may &^= bit
					s.must &^= bit
				}
			}
			return true
		})
		// A deferred unlock releases at function exit, not here: undo
		// the release the walk above just applied, keeping the lock
		// "held" for the rest of the function — exactly the fact rules
		// 1 and 2 need.
		if def, ok := n.(*ast.DeferStmt); ok {
			if key, op, ok := lo.lockOp(def.Call); ok && (op == "Unlock" || op == "RUnlock") {
				bit := uint64(1) << lockBits[key]
				s.may |= bit
				s.must |= bit
			}
		}
		return s
	}
	visit := func(n ast.Node, s lockState) {
		isDefer := false
		if _, ok := n.(*ast.DeferStmt); ok {
			isDefer = true
		}
		inspectShallow(n, func(m ast.Node) bool {
			// Collect literals with their seed: goroutine bodies start
			// clean, in-place callbacks inherit the definition point.
			if lit, ok := m.(*ast.FuncLit); ok {
				seed := s
				if g, ok := n.(*ast.GoStmt); ok && g.Call.Fun == lit {
					seed = lockState{}
				}
				lits = append(lits, litWork{lit, seed})
				return false
			}
			lo.checkNode(f, m, n, s, isDefer)
			return true
		})
	}
	Solve(cfg, entry, joinLockState, transfer, visit)
	for _, lw := range lits {
		lo.checkFunc(f, lw.lit.Body, lw.seed)
	}
}

// checkNode applies the three rules to one shallow node m (contained in
// block node n) given the may/must state in force.
func (lo *lockorderCheck) checkNode(f *ast.File, m ast.Node, blockNode ast.Node, s lockState, inDefer bool) {
	switch mm := m.(type) {
	case *ast.CallExpr:
		// Rule 1: ordering at acquisition sites.
		if key, op, ok := lo.lockOp(mm); ok && (op == "Lock" || op == "RLock") && !inDefer {
			r := lockRank[key]
			if worst, wkey := lo.worstHeld(s.may, r); worst != "" {
				lo.report(f, mm.Pos(), "acquiring %s (rank %d) while %s (rank %d) may be held violates the lock hierarchy (DESIGN.md §12): acquire in increasing rank or release first", key, r, worst, lockRank[wkey])
			}
			return
		}
		// Rule 2: blocking calls. The virtual caller-lock counts: a
		// *Locked function holds its caller's lock by contract, so
		// blocking inside it is exactly the hazard the rule exists for.
		if lo.isBlockingCall(mm) && s.may != 0 {
			lo.report(f, mm.Pos(), "blocking call %s while a ranked lock may be held (%s): a stalled peer turns the lock into a system-wide stall", callName(mm), lo.heldNames(s.may))
			return
		}
		// Rule 3: *Locked convention.
		if name := calleeLockedName(mm); name != "" && s.must == 0 {
			lo.report(f, mm.Pos(), "call to %s: the *Locked suffix requires a ranked lock held on every path, but none is provably held here", name)
		}
	case *ast.SendStmt:
		if s.may != 0 {
			lo.report(f, mm.Pos(), "channel send while a ranked lock may be held (%s): the receiver's pace becomes the lock's hold time", lo.heldNames(s.may))
		}
	case *ast.UnaryExpr:
		if mm.Op == token.ARROW && s.may != 0 {
			lo.report(f, mm.Pos(), "channel receive while a ranked lock may be held (%s): the sender's pace becomes the lock's hold time", lo.heldNames(s.may))
		}
	case *ast.SelectStmt:
		if !selectHasDefault(mm) && s.may != 0 {
			lo.report(f, mm.Pos(), "select without default while a ranked lock may be held (%s): add a default case or release the lock first", lo.heldNames(s.may))
		}
	case *ast.RangeStmt:
		if lo.isChanType(mm.X) && s.may != 0 {
			lo.report(f, mm.Pos(), "ranging over a channel while a ranked lock may be held (%s)", lo.heldNames(s.may))
		}
	}
}

func (lo *lockorderCheck) report(f *ast.File, pos token.Pos, format string, args ...any) {
	fn := enclosingFunc(f, pos)
	if lo.pass.suppressed("lockorder", pos, fn) {
		return
	}
	lo.pass.Reportf(pos, format, args...)
}

// worstHeld returns the name of a held lock whose rank is >= r, if any.
func (lo *lockorderCheck) worstHeld(may uint64, r int) (string, string) {
	may &^= virtualCallerLock
	worst, worstKey := "", ""
	for key, bit := range lockBits {
		if may&(1<<bit) != 0 && lockRank[key] >= r {
			if worstKey == "" || lockRank[key] > lockRank[worstKey] {
				worst, worstKey = key, key
			}
		}
	}
	return worst, worstKey
}

func (lo *lockorderCheck) heldNames(may uint64) string {
	may &^= virtualCallerLock
	var names []string
	for key, bit := range lockBits {
		if may&(1<<bit) != 0 {
			names = append(names, key)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "the caller-held lock of a *Locked function"
	}
	return strings.Join(names, ", ")
}

// lockOp recognizes `x.f.Lock()` / `Unlock` / `RLock` / `RUnlock` where
// x.f is a ranked mutex field, returning its rank key and the method.
func (lo *lockorderCheck) lockOp(n ast.Node) (key, op string, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	// The receiver must itself be a field selection: owner.field.Lock().
	fieldSel, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, found := lo.pass.Info.Selections[fieldSel]
	if !found || selection.Kind() != types.FieldVal {
		return "", "", false
	}
	field := selection.Obj()
	owner := namedTypeName(selection.Recv())
	if owner == "" || field.Pkg() == nil {
		return "", "", false
	}
	k := field.Pkg().Name() + "." + owner + "." + field.Name()
	if _, ranked := lockRank[k]; !ranked {
		return "", "", false
	}
	return k, sel.Sel.Name, true
}

// isBlockingCall recognizes sync.WaitGroup.Wait and sync.Cond.Wait.
func (lo *lockorderCheck) isBlockingCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	tv, ok := lo.pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "WaitGroup" || obj.Name() == "Cond"
}

func (lo *lockorderCheck) isChanType(e ast.Expr) bool {
	tv, ok := lo.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// calleeLockedName returns the display name of a callee whose name ends
// in "Locked" ("" otherwise). Method values and plain functions both
// count; the convention is about the name, not the kind.
func calleeLockedName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if strings.HasSuffix(fun.Name, "Locked") {
			return fun.Name
		}
	case *ast.SelectorExpr:
		if strings.HasSuffix(fun.Sel.Name, "Locked") {
			return fun.Sel.Name
		}
	}
	return ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "(call)"
}
