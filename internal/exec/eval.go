package exec

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ErrBudgetExceeded is returned when an evaluation exceeds the configured
// resource budget — the executor's analogue of the paper's "could not be
// evaluated in our experimental setting" outcome for huge reformulations.
var ErrBudgetExceeded = errors.New("exec: evaluation budget exceeded")

// ErrCanceled is returned when the caller's context is canceled mid-flight
// (client disconnect, server shutdown). It is distinct from
// ErrBudgetExceeded: the evaluation was abandoned, not over budget.
var ErrCanceled = errors.New("exec: evaluation canceled")

// Budget bounds an evaluation. Zero values mean unlimited.
type Budget struct {
	// MaxRows caps the size of any single materialized intermediate
	// relation.
	MaxRows int
	// Timeout caps wall-clock evaluation time. The deadline is set once
	// per top-level Eval* call and shared by every sub-evaluation it
	// spawns (a scatter's shards included): a UCQ of N CQs gets one
	// budget, not N.
	Timeout time.Duration
}

// Evaluator evaluates CQs, UCQs, range UCQs and JUCQs against one source,
// all through one path: every atom is a query.RangeAtom (a plain atom is one
// without ranges), every conjunctive body runs one greedy plan mixing
// index-nested-loop joins (when the running result is small relative to the
// next atom's extent — what a cost-based RDBMS picks for the paper's
// selective cover fragments) and hash joins, and every union runs one
// member loop. The Eval* entry points only lift their input into that form.
type Evaluator struct {
	st    Source
	stats *stats.Stats

	// Budget bounds every evaluation started afterwards.
	Budget Budget
	// MaxParallel caps the workers a scatter over a sharded source may use
	// (0 = runtime.GOMAXPROCS). The admission layer sets it to the
	// query's admitted gate weight, so an evaluation's CPU fan-out
	// tracks the slots it holds instead of every admitted query
	// claiming the whole machine.
	MaxParallel int
	// ForceHashJoins disables every probe — index-nested-loop joins of atoms
	// and semijoins of JUCQ fragments — reading every atom and fragment in
	// full and hash-joining it instead: the ablation knob quantifying how
	// much of the cover strategies' win comes from selective probing.
	ForceHashJoins bool
	// Metrics, when non-nil, receives executor counters (rows scanned /
	// joined / unioned, shard traffic). Safe to share across evaluators and
	// goroutines.
	Metrics *metrics.Registry
	// Span, when non-nil, is the parent under which every top-level Eval*
	// call records one span per operator (scan, index or hash join, union,
	// projection) with its actual row count, wall time and — when
	// an estimate is at hand — the estimated cardinality (EXPLAIN
	// ANALYZE's est-vs-actual columns). Span tracing is concurrency-safe,
	// scatters included.
	Span *trace.Span
	// Cost, when non-nil, supplies the estimates of the operators inside a
	// conjunctive body next to the actuals recorded under Span. Only
	// consulted while Span is set, so the untraced path never pays for
	// estimation. A JUCQ's fragments and fragment joins read their
	// estimates from Fragments; only without those does Cost price a
	// fragment — for a traced span, or for a FragCache miss's admission.
	Cost *cost.Model
	// FragCache, when non-nil, is consulted once per JUCQ fragment for a
	// previously materialized result (internal/viewcache). Fragment
	// evaluation and cache waits both respect the evaluation's guard. With a
	// FragCache no fragment is probed: a view is a whole fragment.
	FragCache FragmentCache
	// Fragments optionally carries what the caller already knows about each
	// fragment of the JUCQ it evaluates, aligned with the fragments (any
	// other length is ignored): the FragCache key and the estimate the plan
	// was priced with. The engine sets it from its cached plan, so a
	// fragment is canonicalized and priced once per plan, not once per
	// execution. The estimates order the fragment joins and decide which
	// fragments are probed (EvalJUCQContext).
	Fragments []FragmentPlan
	// CacheStats, when non-nil, accumulates FragCache outcomes for this
	// evaluation; the engine attaches a fresh value per answered query.
	CacheStats *CacheStats
}

// New returns an evaluator over the source with the given statistics
// (statistics rank plain atoms for join ordering; they may be nil, in which
// case every atom is ranked by its exact index count). Over a ShardedSource a
// union's co-partitioned members evaluate shard-locally in one scatter (see
// source.go); everything else reads it as any other source.
func New(st Source, s *stats.Stats) *Evaluator {
	return &Evaluator{st: st, stats: s}
}

// FragmentPlan is what a caller knows about one JUCQ fragment before
// evaluating it (Evaluator.Fragments).
type FragmentPlan struct {
	// Key is the fragment's FragCache key; empty: the cache derives it.
	Key string
	// Est is the cost model's estimate of the fragment: its est_rows, and
	// its cost for the cache's admission on a miss.
	Est cost.Estimate
}

// checkEvery is how many rows an operator processes between guard checks;
// it bounds how stale a timeout/cancellation can go inside a single scan
// or join (a power of two so the check is a mask).
const checkEvery = 4096

// tally accumulates executor row counts for one top-level evaluation;
// atomics because a scatter's shard workers share it. Flushed into the
// metrics registry once per evaluation, keeping registry traffic off the
// per-row path.
type tally struct {
	scanned atomic.Int64 // triples read from an index, by scans and probes
	joined  atomic.Int64 // rows joins and expansions produce
	unioned atomic.Int64 // rows members offer to their union, duplicates included
	flushed atomic.Bool
}

// guard is the unified early-stop check every operator polls: the budget's
// wall-clock deadline plus caller cancellation. One guard is created per
// top-level Eval* call and threaded — by value, its fields immutable — into
// every sub-evaluation, a scatter's shard workers included, so the whole
// evaluation shares one deadline and one cancellation signal.
type guard struct {
	ctx   context.Context // nil: not cancellable
	at    time.Time
	timed bool
	t     *tally // nil: metrics disabled
}

func (e *Evaluator) newGuard(ctx context.Context) guard {
	g := guard{ctx: ctx}
	if e.Budget.Timeout > 0 {
		g.at = time.Now().Add(e.Budget.Timeout)
		g.timed = true
	}
	if e.Metrics != nil {
		g.t = &tally{}
	}
	return g
}

// err reports why the evaluation must stop, or nil to continue.
func (g guard) err() error {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return fmt.Errorf("%w: context deadline exceeded", ErrBudgetExceeded)
			}
			return fmt.Errorf("%w: %v", ErrCanceled, err)
		}
	}
	if g.timed && time.Now().After(g.at) {
		return fmt.Errorf("%w: timeout", ErrBudgetExceeded)
	}
	return nil
}

func (g guard) addScanned(n int) {
	if g.t != nil {
		g.t.scanned.Add(int64(n))
	}
}

func (g guard) addJoined(n int) {
	if g.t != nil {
		g.t.joined.Add(int64(n))
	}
}

func (g guard) addUnioned(n int) {
	if g.t != nil {
		g.t.unioned.Add(int64(n))
	}
}

// flush publishes the tally when a top-level Eval* returns. Idempotent:
// guards are copied by value into sub-evaluations and wrappers, so a
// tally could otherwise be flushed once per copy and double-count rows.
func (g guard) flush(m *metrics.Registry) {
	if g.t == nil || m == nil || !g.t.flushed.CompareAndSwap(false, true) {
		return
	}
	m.Counter("exec.rows_scanned").Add(g.t.scanned.Load())
	m.Counter("exec.rows_joined").Add(g.t.joined.Load())
	// Rows offered to a union's set (a lone CQ is a one-member union),
	// counted before the set drops duplicates.
	m.Counter("exec.rows_unioned").Add(g.t.unioned.Load())
}

func (e *Evaluator) checkRows(n int) error {
	if e.Budget.MaxRows > 0 && n > e.Budget.MaxRows {
		return fmt.Errorf("%w: intermediate relation of %d rows exceeds cap %d", ErrBudgetExceeded, n, e.Budget.MaxRows)
	}
	return nil
}

// EvalCQContext evaluates one conjunctive query and returns its distinct
// answers over the CQ's head (column names follow headNames, which must
// align with q.Head). Cancelling ctx aborts the evaluation at the next
// operator checkpoint (at most checkEvery rows away) with an error wrapping
// ErrCanceled.
func (e *Evaluator) EvalCQContext(ctx context.Context, headNames []string, q query.CQ) (*Relation, error) {
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	out := NewSet(headNames)
	if err := e.evalCQ(q.Lift(), nil, nil, g, e.Span, out); err != nil {
		return nil, err
	}
	return out.Rows, nil
}

// evalCQ evaluates one CQ in the evaluator's atom form into dst, the set of
// the union it is a member of (a lone CQ is a one-member union): join the
// body, apply the atoms' expansions, and offer each row, projected onto the
// head, to dst. Variables nothing reads are wildcards, never columns (see
// deadPositions). seed, when non-nil, is the union's semijoin seed, which
// the body starts from if the member may be seeded (seeds). m is the
// enclosing union's memo (nil outside a serial member loop). The "cq" span's
// rows are the rows offered, duplicates included.
func (e *Evaluator) evalCQ(q query.RangeCQ, seed *Relation, m *memo, g guard, sp *trace.Span, dst *Set) error {
	if len(q.Head) != dst.Rows.Width() {
		return fmt.Errorf("exec: head has %d args, expected %d names", len(q.Head), dst.Rows.Width())
	}
	if seed != nil && !seeds(q, seed.Vars, dst.Rows.Vars) {
		seed = nil
	}
	var csp *trace.Span
	if sp != nil {
		csp = sp.Child("cq")
		defer csp.End()
		csp.SetText("q", rangeCQText{e.st.Dict(), q})
	}
	var deadBuf [8]uint8
	body, err := e.evalBody(q.Atoms, deadPositions(deadBuf[:0], q), seed, m, g, csp)
	if err != nil {
		return err
	}
	// Expansions run after the joins, in atom order.
	for _, a := range q.Atoms {
		if a.Expand == nil {
			continue
		}
		if body, err = e.expandRelation(body, a.Expand, g, csp); err != nil {
			return err
		}
	}
	src, row, err := headColumns(q.Head, body)
	if err != nil {
		return err
	}
	if err := dst.insert(body, src, row, g.err); err != nil {
		return err
	}
	g.addUnioned(body.Len())
	if csp != nil {
		csp.SetInt("rows", int64(body.Len()))
		if m == nil { // no union: the CQ's span owns dst
			dst.note(csp)
		}
		csp.End()
	}
	return nil
}

// seeds reports whether a member may start from its union's seed, whose
// columns are vars: its head holds each of them in place — Head[k] is the
// variable names[k] — and its atoms bind it. A member with a constant, or a
// variable named for another slot, in a seeded slot runs unseeded, and the
// hash join its union feeds checks every shared column.
func seeds(q query.RangeCQ, vars, names []string) bool {
	for i, v := range vars {
		k := slices.Index(names, v)
		if k == -1 || !q.Head[k].IsVar() || q.Head[k].Var != v ||
			!slices.ContainsFunc(q.Atoms, func(a query.RangeAtom) bool { return atomSharesVar(a, vars[i:i+1]) }) {
			return false
		}
	}
	return true
}

// tracing reports whether the evaluator must record est-vs-actual operator
// spans under sp.
func (e *Evaluator) tracing(sp *trace.Span) bool { return sp != nil && e.Cost != nil }

// The texts spans record, made only when a trace is read. What they refer
// to is the plan's or the union's and is not written while the request
// lasts.
type (
	rangeCQText struct {
		d *dict.Dict
		q query.RangeCQ
	}
	atomText struct {
		d *dict.Dict
		a *query.RangeAtom
	}
	// fragmentAtoms is a fragment's atoms as a one-fragment cover.
	fragmentAtoms []int
)

func (t rangeCQText) String() string   { return t.q.Format(t.d) }
func (t atomText) String() string      { return t.a.Format(t.d) }
func (f fragmentAtoms) String() string { return query.Cover{f}.String() }

// estCard returns the estimated cardinality for atom i (-1: no estimate).
func estCard(ests []cost.Estimate, i int) float64 {
	if ests == nil {
		return -1
	}
	return ests[i].Card
}

// atomCard is the cardinality the greedy order ranks an atom by: the
// statistics estimate when the evaluator has statistics and the atom is
// not ranged, the exact index count (two binary searches) otherwise — so an
// evaluator without statistics still orders by size, and evaluating a
// range union never needs statistics built.
func (e *Evaluator) atomCard(a query.RangeAtom) float64 {
	if e.stats != nil && !a.Ranged() {
		return e.stats.PatternCard(a.Plain().Pattern())
	}
	return float64(e.st.CountRange(a.RangePattern()))
}

// evalBody evaluates the join of all atoms and returns a relation over all
// body variables, by the greedy plan of package cost: cost.Pick orders the
// atoms (smallest first, then connected ones first, smaller first) and
// cost.PreferINLJ decides whether a connected atom is probed per row of the
// running result or materialized and joined — the calls the cost model
// makes to price this plan and EXPLAIN to print it. A non-nil seed is the
// running result the plan starts from instead of its smallest atom (a
// semijoin's bindings) and the root of the memo's join prefixes. Inside a
// union, scans and the intermediates of proper body prefixes go through the
// union's memo; the whole body never does — a union's members are distinct.
// dead holds each atom's dead positions (deadPositions).
func (e *Evaluator) evalBody(atoms []query.RangeAtom, dead []uint8, seed *Relation, m *memo, g guard, sp *trace.Span) (*Relation, error) {
	if len(atoms) == 0 {
		return nil, errors.New("exec: empty BGP")
	}
	// Planning state lives on the stack for bodies of up to eight atoms.
	var cardBuf [8]float64
	var remBuf [8]int
	card, remaining := cardBuf[:0], remBuf[:0]
	for i, a := range atoms {
		card = append(card, e.atomCard(a))
		remaining = append(remaining, i)
	}
	cardOf := func(i int) float64 { return card[i] }
	// When tracing, carry the cost model's running estimate beside the
	// actual result so every operator span records est next to actual.
	var (
		ests []cost.Estimate
		run  cost.Estimate
	)
	if e.tracing(sp) && seed == nil { // the model prices no seeded body
		ests = make([]cost.Estimate, len(atoms))
		for i, a := range atoms {
			ests[i] = e.Cost.RangeAtom(a)
		}
	}
	cur := seed
	if seed != nil {
		m.beginSeed()
	} else {
		start, _ := cost.Pick(remaining, cardOf, nil)
		first := remaining[start]
		remaining = append(remaining[:start], remaining[start+1:]...)
		var err error
		if cur, err = e.scanAtom(&atoms[first], dead[first], m, g, sp, estCard(ests, first)); err != nil {
			return nil, err
		}
		m.begin(atoms[first], dead[first])
		if ests != nil {
			run = ests[first]
		}
	}
	connected := func(i int) bool { return atomSharesVar(atoms[i], cur.Vars) }
	for len(remaining) > 0 {
		if err := g.err(); err != nil {
			return nil, err
		}
		best, isConnected := cost.Pick(remaining, cardOf, connected)
		ai := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		atom := atoms[ai]
		estOut := -1.0
		if ests != nil {
			run = cost.Join(run, ests[ai])
			estOut = run.Card
		}
		shared := len(remaining) > 0 // a proper prefix of the body
		if shared {
			if hit := m.join(atom, dead[ai]); hit != nil {
				cur = hit
				continue
			}
		}
		var err error
		switch {
		case isConnected && !e.ForceHashJoins && cost.PreferINLJ(float64(cur.Len()), card[ai]):
			cur, err = e.indexJoin(cur, &atoms[ai], dead[ai], g, sp, estOut)
		case isConnected && e.streams(cur, atom, dead[ai], card[ai]):
			cur, err = e.streamJoin(cur, &atoms[ai], dead[ai], m, g, sp, estOut)
		default:
			var right *Relation
			right, err = e.scanAtom(&atoms[ai], dead[ai], m, g, sp, estCard(ests, ai))
			if err != nil {
				return nil, err
			}
			cur, err = e.hashJoin(cur, right, g, sp, estOut)
		}
		if err != nil {
			return nil, err
		}
		if shared {
			m.putJoin(cur)
		}
	}
	return cur, nil
}

// scanAtom materializes one atom into a relation over its distinct live
// variables (plain and capture), reading the atom's range pattern a block at
// a time and polling the guard once per block. The dead positions are
// wildcards: not emitted, and an atom with no live variable is a boolean test
// that stops at its first triple. An atom whose positions bind distinct
// columns appends each block's columns at once; one with a repeated variable
// keeps, triple by triple, those that agree on it.
func (e *Evaluator) scanAtom(a *query.RangeAtom, dead uint8, m *memo, g guard, sp *trace.Span, est float64) (*Relation, error) {
	vars, col := atomVars(nil, *a, dead)
	if rel := m.scan(*a, dead, vars, col); rel != nil {
		return rel, nil
	}
	repeat := repeats(col)
	batch := len(vars) > 0 && repeat == [3]bool{}
	var ssp *trace.Span
	if sp != nil {
		ssp = sp.Child(cost.OpScan)
		defer ssp.End()
		ssp.SetText("atom", atomText{e.st.Dict(), a})
		if est >= 0 {
			ssp.SetFloat("est_rows", est)
		}
	}
	var (
		rel     = NewRelation(vars)
		stopErr error
		row     []dict.ID
	)
	if !batch {
		row = make([]dict.ID, len(vars))
	}
	e.st.EachRun(a.RangePattern(), func(run []dict.Triple) bool {
		if stopErr = g.err(); stopErr != nil {
			return false
		}
		if batch {
			for len(run) > 0 {
				run = rel.appendColumns(run, col)
			}
		} else {
		triples:
			for _, t := range run {
				trip := [3]dict.ID{t.S, t.P, t.O}
				for p, c := range col {
					switch {
					case c == -1:
					case !repeat[p]:
						row[c] = trip[p]
					case row[c] != trip[p]:
						continue triples
					}
				}
				if rel.Append(row); len(row) == 0 {
					return false
				}
			}
		}
		if e.Budget.MaxRows > 0 && rel.Len() > e.Budget.MaxRows {
			stopErr = fmt.Errorf("%w: scan of %d+ rows exceeds cap %d", ErrBudgetExceeded, rel.Len(), e.Budget.MaxRows)
			return false
		}
		return true
	})
	if stopErr != nil {
		return nil, stopErr
	}
	g.addScanned(rel.Len())
	if ssp != nil {
		ssp.SetInt("rows", int64(rel.Len()))
		ssp.End()
	}
	m.putScan(rel)
	return rel, nil
}

// indexJoin extends each row of cur with the atom's matches, looking the
// atom up in the store with the row's bindings applied (index nested-loop
// join): the atom's range pattern narrowed, at each position cur binds, to
// the row's ID — a row whose ID falls outside the atom's ranges there matches
// nothing. Dead positions are wildcards, so a probe that binds no live
// variable is a semijoin: it stops at the first matching triple of each row.
// Every probe reads its matches a block at a time through one callback, made
// once per join, whose loop over the block does the per-triple work; the
// guard is polled every checkEvery probe rows and triples. The triples the
// probes read are scanned rows.
func (e *Evaluator) indexJoin(cur *Relation, a *query.RangeAtom, dead uint8, g guard, sp *trace.Span, est float64) (*Relation, error) {
	var jsp *trace.Span
	if sp != nil {
		jsp = sp.Child(cost.OpINLJ)
		defer jsp.End()
		jsp.SetText("atom", atomText{e.st.Dict(), a})
		jsp.SetInt("left_rows", int64(cur.Len()))
		if est >= 0 {
			jsp.SetFloat("est_rows", est)
		}
	}
	// Each position is fixed by the atom's pattern (a constant, an uncaptured
	// range or a dead variable), a variable cur binds (a probe key), or a
	// free variable (a new output column).
	type pos struct {
		col    int  // column in cur, -1 unless bound by cur
		outIdx int  // index among the new output columns, -1 otherwise
		repeat bool // outIdx was filled by an earlier position
	}
	var positions [3]pos
	var newVars []string
	for i, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		p := pos{col: -1, outIdx: -1}
		switch {
		case !ra.Arg.IsVar() || dead&(1<<i) != 0:
		case cur.columnIndex(ra.Arg.Var) != -1:
			p.col = cur.columnIndex(ra.Arg.Var)
		default:
			for k, v := range newVars {
				if v == ra.Arg.Var {
					p.outIdx, p.repeat = k, true
				}
			}
			if !p.repeat {
				p.outIdx = len(newVars)
				newVars = append(newVars, ra.Arg.Var)
			}
		}
		positions[i] = p
	}
	semi := len(newVars) == 0
	w := len(cur.Vars)
	out := NewRelation(append(append([]string(nil), cur.Vars...), newVars...))
	// outRow holds the probe row in its first w columns, the match's free
	// variables after them.
	outRow := make([]dict.ID, out.Width())
	var (
		stopErr error
		steps   int
		scanned int
	)
	match := func(run []dict.Triple) bool {
		// Poll when the steps cross a multiple of checkEvery.
		before := steps
		if steps += len(run); before^steps >= checkEvery {
			if stopErr = g.err(); stopErr != nil {
				return false
			}
		}
	triples:
		for _, t := range run {
			scanned++
			trip := [3]dict.ID{t.S, t.P, t.O}
			// Fill free variables, checking repeated occurrences agree (bound
			// ones are pinned by the probe pattern).
			for k, p := range positions {
				switch {
				case p.outIdx == -1:
				case !p.repeat:
					outRow[w+p.outIdx] = trip[k]
				case outRow[w+p.outIdx] != trip[k]:
					continue triples
				}
			}
			out.Append(outRow)
			if e.Budget.MaxRows > 0 && out.Len() > e.Budget.MaxRows {
				stopErr = fmt.Errorf("%w: join result exceeds cap %d", ErrBudgetExceeded, e.Budget.MaxRows)
				return false
			}
			if semi {
				return false
			}
		}
		return true
	}
	// The probe pattern is the atom's, each bound position an exact range
	// whose ID each row sets: no allocation per probe.
	rpat := a.RangePattern()
	ranges := [3][]storage.IDRange{rpat.S, rpat.P, rpat.O}
	var exact [3][1]storage.IDRange
	probe := ranges
	for k, p := range positions {
		if p.col != -1 {
			probe[k] = exact[k][:]
		}
	}
	pat := storage.RangePattern{S: probe[0], P: probe[1], O: probe[2]}
rows:
	for i := 0; i < cur.Len(); i++ {
		steps++
		if steps&(checkEvery-1) == 0 {
			if err := g.err(); err != nil {
				return nil, err
			}
		}
		row := cur.Row(i)
		for k, p := range positions {
			if p.col == -1 {
				continue
			}
			id := row[p.col]
			if ranges[k] != nil && !storage.InRanges(ranges[k], id) {
				continue rows
			}
			exact[k][0] = storage.Exact(id)
		}
		copy(outRow, row)
		if e.st.EachRun(pat, match); stopErr != nil {
			return nil, stopErr
		}
	}
	g.addScanned(scanned)
	g.addJoined(out.Len())
	if jsp != nil {
		jsp.SetInt("rows", int64(out.Len()))
		jsp.End()
	}
	return out, nil
}

// repeats reports, per position of an atom whose positions bind the columns
// col (atomVars), whether an earlier position bound its variable.
func repeats(col [3]int) (repeat [3]bool) {
	for p := 1; p < 3; p++ {
		repeat[p] = col[p] != -1 && (col[p] == col[0] || (p == 2 && col[p] == col[1]))
	}
	return repeat
}

// streams reports whether a hashed atom joins cur by streamJoin: the atom's
// scan reads whole blocks (a live variable, none repeated), and the scan has
// at least cur's rows, so the table is built on cur as hashJoin builds on the
// smaller side. The rows are counted exactly, by index searches; card is that
// count already for a ranged atom or without statistics.
func (e *Evaluator) streams(cur *Relation, a query.RangeAtom, dead uint8, card float64) bool {
	var buf [3]string
	vars, col := atomVars(buf[:0], a, dead)
	if len(vars) == 0 || repeats(col) != [3]bool{} {
		return false
	}
	if !a.Ranged() && e.stats != nil {
		card = float64(e.st.CountRange(a.RangePattern()))
	}
	return card >= float64(cur.Len())
}

// hashJoin joins two relations on their shared variables (cross product
// when none), building on the smaller side and probing it with the other's
// chunks.
func (e *Evaluator) hashJoin(l, r *Relation, g guard, sp *trace.Span, est float64) (*Relation, error) {
	shared := sharedVars(l.Vars, r.Vars)
	jsp := joinSpan(sp, cost.OpHashJoin, shared, l.Len(), est)
	if jsp != nil {
		defer jsp.End()
		jsp.SetInt("right_rows", int64(r.Len()))
	}
	return e.joinRelations(l, r, shared, g, jsp)
}

// joinRelations is hashJoin's join, closing jsp (finish).
func (e *Evaluator) joinRelations(l, r *Relation, shared []string, g guard, jsp *trace.Span) (*Relation, error) {
	build, probe := l, r
	if r.Len() < l.Len() {
		build, probe = r, l
	}
	t, err := e.newJoinTable(build, probe.Vars, shared, g)
	if err != nil {
		return nil, err
	}
	if err := t.probeRelation(probe); err != nil {
		return nil, err
	}
	return t.finish(jsp), nil
}

// streamJoin hash-joins an atom into cur with the atom's scan as the probe
// side: the table is built on cur and probed a block at a time as the index
// yields the scan's rows, each block projected onto the scan's columns in
// one reused batch. Inside a union the scan is kept for the memo as it
// streams, and a scan the memo holds is probed from its chunks. When the
// scan has at least cur's rows (streams), the result is hashJoin(cur, scan)
// row for row: the same columns, the same rows in the same order. The
// streamed triples are the scan's rows: charged to Budget.MaxRows and
// counted as scanned. The guard is polled once per block and, inside the
// probe, every checkEvery rows.
func (e *Evaluator) streamJoin(cur *Relation, a *query.RangeAtom, dead uint8, m *memo, g guard, sp *trace.Span, est float64) (*Relation, error) {
	vars, col := atomVars(nil, *a, dead)
	shared := sharedVars(cur.Vars, vars)
	jsp := joinSpan(sp, cost.OpHashJoin, shared, cur.Len(), est)
	if jsp != nil {
		defer jsp.End()
		jsp.SetText("atom", atomText{e.st.Dict(), a})
	}
	t, err := e.newJoinTable(cur, vars, shared, g)
	if err != nil {
		return nil, err
	}
	streamed := 0
	if held := m.scan(*a, dead, vars, col); held != nil {
		if err := t.probeRelation(held); err != nil {
			return nil, err
		}
		streamed = held.Len()
	} else {
		var (
			batch   []dict.ID
			stopErr error
			kept    *Relation
		)
		// Inside a union the scan is kept as it streams, while it fits the
		// memo, so the members after this one probe its chunks instead of
		// reading the index again; the kept rows are probed where they are
		// written.
		if m != nil {
			kept = NewRelation(vars)
		}
		probe := func(run []dict.Triple) bool {
			if stopErr = g.err(); stopErr != nil {
				return false
			}
			if streamed += len(run); e.Budget.MaxRows > 0 && streamed > e.Budget.MaxRows {
				stopErr = fmt.Errorf("%w: scan of %d+ rows exceeds cap %d", ErrBudgetExceeded, streamed, e.Budget.MaxRows)
				return false
			}
			if kept == nil {
				batch = slices.Grow(batch[:0], len(run)*len(vars))[:len(run)*len(vars)]
				fillColumns(batch, run, col, len(vars))
				stopErr = t.probe(batch, len(run))
				return stopErr == nil
			}
			// The rows appendColumns writes end the last chunk: probe them there.
			for len(run) > 0 && stopErr == nil {
				n := len(run)
				run = kept.appendColumns(run, col)
				n -= len(run)
				stopErr = t.probe(kept.last[len(kept.last)-n*len(vars):], n)
			}
			if m.held+kept.ids() > memoCap {
				kept = nil
			}
			return stopErr == nil
		}
		e.st.EachRun(a.RangePattern(), probe)
		if stopErr != nil {
			return nil, stopErr
		}
		g.addScanned(streamed)
		if kept != nil {
			m.putScan(kept)
		}
	}
	if jsp != nil {
		jsp.SetInt("right_rows", int64(streamed))
	}
	return t.finish(jsp), nil
}

// joinSpan opens a join's span under sp (nil when sp is): op, or "cross"
// when no variable is shared, with the running result's rows and the
// estimate (-1: none).
func joinSpan(sp *trace.Span, op string, shared []string, left int, est float64) *trace.Span {
	if sp == nil {
		return nil
	}
	if len(shared) == 0 {
		op = cost.OpCross
	}
	jsp := sp.Child(op)
	jsp.SetStr("on", strings.Join(shared, ","))
	jsp.SetInt("left_rows", int64(left))
	if est >= 0 {
		jsp.SetFloat("est_rows", est)
	}
	return jsp
}

// joinTable is the executor's one hash-join kernel: a table over the build
// side's shared columns, probed a batch of rows at a time — a relation's
// chunk, or an index block projected onto a scan's columns. A match emits
// the probe row followed by the build row's other columns: in probe order
// and, per probe row, in build order. A filter of one bit per build row's
// key hash, under a second mix, turns most probe rows that match nothing
// away before they read a chain head, a next link or a build row.
type joinTable struct {
	e          *Evaluator
	g          guard
	build      *Relation
	table      rowTable
	filter     []uint64 // bit (h*filterMix)>>fshift set for each build row's hash h
	fshift     uint     // 64 − log2 of the filter's bits
	filtered   int      // probe rows the filter turned away
	bIdx, pIdx []int    // the shared columns in build and probe rows
	extra      []int    // the build columns a probe row lacks
	out        *Relation
	steps      int // rows hashed, probed and emitted, for the guard
}

// filterBitsPerRow sizes a join's filter: the least power of two of at
// least this many bits a build row, and at least a word. A probe whose key
// no build row has then passes with a chance of at most 1 − e^(−1/8), 12 %,
// for keys spread at random. On refperf's join_scan (seed 31, 15 s, 2 cores,
// two runs each, normalized class p50s) Q9's two classes took 7.4–7.8 ms at
// 8 bits, 8.0–8.3 ms at 4 (a quarter of the misses pass) and 7.4–7.8 ms at
// 16, which doubles the filter for nothing measurable.
const filterBitsPerRow = 8

// filterMix is the filter's mix of a key hash, apart from hashMix (which a
// test zeroes): the golden-ratio multiplier over hashCols' FNV prime, mod
// 2⁶⁴, so that a hash times it is a Fibonacci hash of the last key column
// XORed into the state and dense IDs take a bit each. An arbitrary odd
// constant put the IDs 1–20 on 11 of a filter's 256 bits.
const filterMix uint64 = 0x38296abf1a2fd717

// newJoinTable hashes build on the shared variables, for probe rows over
// probeVars.
func (e *Evaluator) newJoinTable(build *Relation, probeVars, shared []string, g guard) (joinTable, error) {
	t := joinTable{e: e, g: g, build: build, bIdx: make([]int, len(shared)), pIdx: make([]int, len(shared))}
	for i, v := range shared {
		t.bIdx[i] = build.columnIndex(v)
		t.pIdx[i] = slices.Index(probeVars, v)
	}
	// Output columns: all of the probe side's, then build's non-shared.
	outVars := append([]string(nil), probeVars...)
	for i, v := range build.Vars {
		if !slices.Contains(probeVars, v) {
			outVars = append(outVars, v)
			t.extra = append(t.extra, i)
		}
	}
	t.out = NewRelation(outVars)
	// Build in descending row order, so that a chain lists its rows ascending.
	t.table = newRowTable(build.Len())
	fbits := uint(bits.Len(uint(max(filterBitsPerRow*build.Len(), 64) - 1)))
	t.filter, t.fshift = make([]uint64, 1<<fbits/64), 64-fbits
	for i := build.Len() - 1; i >= 0; i-- {
		if err := t.tick(); err != nil {
			return joinTable{}, err
		}
		h := hashCols(build.Row(i), t.bIdx)
		t.table.add(h, i)
		f := (h * filterMix) >> t.fshift
		t.filter[f>>6] |= 1 << (f & 63)
	}
	return t, nil
}

// tick counts one step and polls the guard every checkEvery steps.
func (t *joinTable) tick() error {
	if t.steps++; t.steps&(checkEvery-1) == 0 {
		return t.g.err()
	}
	return nil
}

// probeRelation probes the table with a relation's rows, a chunk at a time,
// polling the guard before every chunk but the first, which follows the
// caller's poll: a join of small relations pays no poll of its own.
func (t *joinTable) probeRelation(r *Relation) error {
	for c := 0; c < r.chunks(); c++ {
		if c > 0 {
			if err := t.g.err(); err != nil {
				return err
			}
		}
		if err := t.probe(r.chunk(c)); err != nil {
			return err
		}
	}
	return nil
}

// probe joins a batch of n probe rows, row-major, into the output.
func (t *joinTable) probe(batch []dict.ID, n int) error {
	w := t.out.Width() - len(t.extra)
	for k := 0; k < n; k++ {
		if err := t.tick(); err != nil {
			return err
		}
		prow := batch[k*w : k*w+w]
		h := hashCols(prow, t.pIdx)
		if f := (h * filterMix) >> t.fshift; t.filter[f>>6]&(1<<(f&63)) == 0 {
			t.filtered++
			continue
		}
	match:
		for bi := t.table.chain(h); bi != 0; bi = t.table.next[bi-1] {
			if err := t.tick(); err != nil {
				return err
			}
			brow := t.build.Row(int(bi - 1))
			for i, c := range t.pIdx {
				if prow[c] != brow[t.bIdx[i]] {
					continue match
				}
			}
			row := t.out.extend()
			copy(row, prow)
			for j, c := range t.extra {
				row[w+j] = brow[c]
			}
			if err := t.e.checkRows(t.out.Len()); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish counts the output as joined and closes the join's span with it
// and, for a join on shared columns, the probe rows its filter turned away.
func (t *joinTable) finish(jsp *trace.Span) *Relation {
	t.g.addJoined(t.out.Len())
	if jsp != nil {
		if len(t.pIdx) > 0 {
			jsp.SetInt("filtered", int64(t.filtered))
		}
		jsp.SetInt("rows", int64(t.out.Len()))
		jsp.End()
	}
	return t.out
}

// headColumns maps each head argument to the body column it reads (src, -1
// for a constant) and returns a head row holding the constants, for
// Set.insert.
func headColumns(head []query.Arg, body *Relation) (src []int, row []dict.ID, err error) {
	src, row = make([]int, len(head)), make([]dict.ID, len(head))
	for i, h := range head {
		src[i] = -1
		switch {
		case !h.IsVar():
			row[i] = h.ID
		case body.columnIndex(h.Var) == -1:
			return nil, nil, fmt.Errorf("exec: head variable %s missing from body", h.Var)
		default:
			src[i] = body.columnIndex(h.Var)
		}
	}
	return src, row, nil
}

// EvalUCQContext evaluates a union of CQs with set semantics, bounded by
// ctx. The whole union — scatters included — shares one deadline and one
// cancellation signal.
func (e *Evaluator) EvalUCQContext(ctx context.Context, u query.UCQ) (*Relation, error) {
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	return e.evalUnion(u.HeadNames, u.Lift(), nil, g, e.Span)
}

// EvalRangeUCQContext evaluates a union of range CQs (the ref-range
// reformulation) with set semantics, bounded by ctx.
func (e *Evaluator) EvalRangeUCQContext(ctx context.Context, u query.RangeUCQ) (*Relation, error) {
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	return e.evalUnion(u.HeadNames, u.CQs, nil, g, e.Span)
}

// union is the one member loop of the executor: however a union runs —
// serially, streamed or per shard — each member's answers enter the result
// through one set.
type union struct {
	ev   *Evaluator
	g    guard
	out  *Set
	seed *Relation // the semijoin seed its members start from; nil: none
	memo *memo
	done int
}

// newUnion starts a union, whose members share a memo and the seed (nil:
// the members run unseeded).
func (e *Evaluator) newUnion(headNames []string, seed *Relation, g guard) *union {
	return &union{ev: e, g: g, out: NewSet(headNames), seed: seed, memo: &memo{}}
}

// add evaluates one member into the union's set under the row cap.
func (u *union) add(q query.RangeCQ, sp *trace.Span) error {
	if err := u.ev.evalCQ(q, u.seed, u.memo, u.g, sp, u.out); err != nil {
		return err
	}
	u.done++
	return u.ev.checkRows(u.out.Rows.Len())
}

// addAll evaluates the members in order, polling the guard between them.
func (u *union) addAll(cqs []query.RangeCQ, sp *trace.Span) error {
	for _, cq := range cqs {
		if err := u.g.err(); err != nil {
			return fmt.Errorf("%w (after %d/%d CQs)", err, u.done, len(cqs))
		}
		if err := u.add(cq, sp); err != nil {
			return err
		}
	}
	return nil
}

// finish closes the union's span and returns its rows.
func (u *union) finish(sp *trace.Span) *Relation {
	if sp != nil {
		sp.SetInt("rows", int64(u.out.Rows.Len()))
		u.out.note(sp)
		sp.End()
	}
	return u.out.Rows
}

// note records on sp, the span of the union or the lone CQ that owns the
// set, that the set's rows are told apart by a bitmap (see Set).
func (s *Set) note(sp *trace.Span) {
	if s.bits != nil {
		sp.SetStr("distinct", "bitmap")
	}
}

// evalUnion evaluates a union's members under one guard, each from the seed
// when there is one. Span tracing records a "union" span under sp with one
// "cq" child per member. Against a sharded source the co-partitioned members,
// one or more, run first in one scatter (see evalUnionScatter).
func (e *Evaluator) evalUnion(headNames []string, cqs []query.RangeCQ, seed *Relation, g guard, sp *trace.Span) (*Relation, error) {
	if len(cqs) == 0 {
		return NewRelation(headNames), nil
	}
	var usp *trace.Span
	if sp != nil {
		usp = sp.Child("union")
		defer usp.End()
		usp.SetInt("cqs", int64(len(cqs)))
	}
	u := e.newUnion(headNames, seed, g)
	if sh := e.scatterSource(); sh != nil {
		if co, rest := SplitCoPartitioned(cqs); len(co) > 0 {
			if err := e.evalUnionScatter(sh, co, len(rest), seed, g, usp, u.out); err != nil {
				return nil, err
			}
			cqs = rest
		}
	}
	if err := u.addAll(cqs, usp); err != nil {
		return nil, err
	}
	return u.finish(usp), nil
}

// EvalUCQStreamContext evaluates the CQs produced by a streaming
// enumeration (used when the UCQ is too large to materialize), bounded by
// ctx; enumerate must call its argument once per CQ and stop when it
// returns false.
func (e *Evaluator) EvalUCQStreamContext(ctx context.Context, headNames []string, enumerate func(func(query.CQ) bool)) (*Relation, error) {
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	var usp *trace.Span
	if e.Span != nil {
		usp = e.Span.Child("union")
		defer usp.End()
	}
	u := e.newUnion(headNames, nil, g)
	// Reused untraced; traced, a member's spans keep its atoms.
	var atoms []query.RangeAtom
	var evalErr error
	enumerate(func(cq query.CQ) bool {
		if err := g.err(); err != nil {
			evalErr = fmt.Errorf("%w (after %d CQs)", err, u.done)
			return false
		}
		if usp != nil {
			atoms = nil
		}
		atoms = query.LiftAtoms(atoms[:0], cq.Atoms)
		evalErr = u.add(query.RangeCQ{Head: cq.Head, Atoms: atoms}, usp)
		return evalErr == nil
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if usp != nil {
		usp.SetInt("cqs", int64(u.done))
	}
	return u.finish(usp), nil
}

// EvalJUCQContext evaluates a join of UCQs, bounded by ctx, by the plan rule
// of a conjunctive body (package cost) over the fragments' estimates: start
// from the smallest fragment, cost.Pick the next, connected ones first, and
// probe a connected one where cost.PreferINLJ says so — a semijoin: the
// running result's distinct bindings of the shared variables seed the
// fragment's members, so only rows that can join are computed and hashed in.
// Nothing is probed under ForceHashJoins or with a FragCache; without
// estimates every fragment is materialized first and ranked by its size. The
// join is projected on the head. All fragments share one deadline: a JUCQ of
// N fragments gets one Budget.Timeout, not N.
func (e *Evaluator) EvalJUCQContext(ctx context.Context, j query.JUCQ) (*Relation, error) {
	if len(j.Fragments) == 0 {
		return nil, errors.New("exec: JUCQ without fragments")
	}
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	sp := e.Span
	// What is known of each fragment beforehand: the caller's plans or, only
	// for a trace (est_rows on fragment and join spans), the model's
	// estimates made here. Without either the cache prices a miss itself.
	plans := e.Fragments
	if len(plans) != len(j.Fragments) {
		plans = nil
		if e.Cost != nil && sp != nil {
			plans = make([]FragmentPlan, len(j.Fragments))
			//reflint:noguard estimation only, bounded by the cover's fragment count
			for i, f := range j.Fragments {
				plans[i].Est = e.Cost.UCQ(f.UCQ)
			}
		}
	}
	rels := make([]*Relation, len(j.Fragments))
	fragment := func(i int, seed *Relation, sp *trace.Span) (*Relation, error) {
		if rels[i] != nil {
			return rels[i], nil
		}
		var plan *FragmentPlan
		if plans != nil {
			plan = &plans[i]
		}
		return e.evalFragment(j.Fragments[i], i, plan, seed, g, sp)
	}
	card := func(i int) float64 { return float64(rels[i].Len()) }
	if plans != nil {
		card = func(i int) float64 { return plans[i].Est.Card }
	} else {
		for i := range rels {
			if err := g.err(); err != nil {
				return nil, err
			}
			r, err := fragment(i, nil, sp)
			if err != nil {
				return nil, err
			}
			rels[i] = r
		}
	}
	probe := plans != nil && !e.ForceHashJoins && e.FragCache == nil
	var remBuf [8]int
	remaining := remBuf[:0]
	for i := range rels {
		remaining = append(remaining, i)
	}
	start, _ := cost.Pick(remaining, card, nil)
	first := remaining[start]
	remaining = append(remaining[:start], remaining[start+1:]...)
	cur, err := fragment(first, nil, sp)
	if err != nil {
		return nil, err
	}
	var runEst cost.Estimate
	if plans != nil {
		runEst = plans[first].Est
	}
	connected := func(i int) bool { return len(sharedVars(cur.Vars, j.Fragments[i].UCQ.HeadNames)) > 0 }
	for len(remaining) > 0 {
		if err := g.err(); err != nil {
			return nil, err
		}
		best, isConnected := cost.Pick(remaining, card, connected)
		fi := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		shared := sharedVars(cur.Vars, j.Fragments[fi].UCQ.HeadNames)
		op := cost.OpCross
		switch {
		case isConnected && probe && cost.PreferINLJ(float64(cur.Len()), card(fi)):
			op = cost.OpSemijoin
		case isConnected:
			op = cost.OpHashJoin
		}
		estOut := -1.0
		if plans != nil && sp != nil {
			runEst = cost.Join(runEst, plans[fi].Est)
			estOut = runEst.Card
		}
		right := func(seed *Relation, sp *trace.Span) (*Relation, error) { return fragment(fi, seed, sp) }
		if cur, err = e.joinFragment(cur, op, shared, right, g, sp, estOut); err != nil {
			return nil, err
		}
	}
	var psp *trace.Span
	if sp != nil {
		psp = sp.Child("project")
		defer psp.End()
		psp.SetStr("cols", strings.Join(j.HeadNames, ","))
	}
	out, err := projectColumns(j.HeadNames, cur, g)
	if err != nil {
		return nil, err
	}
	if psp != nil {
		psp.SetInt("rows", int64(out.Len()))
		psp.End()
	}
	return out, nil
}

// joinFragment joins a fragment into cur by op, under a span of that name
// holding the fragment's: a semijoin evaluates the fragment from cur's
// distinct bindings of the shared variables — the seed — any other join in
// full. est is the running estimate after the step (-1: none). The span
// closes as a hash join's does, with the rows and the probe rows the join's
// filter turned away.
func (e *Evaluator) joinFragment(cur *Relation, op string, shared []string, fragment func(seed *Relation, sp *trace.Span) (*Relation, error), g guard, sp *trace.Span, est float64) (*Relation, error) {
	jsp := sp.Child(op)
	defer jsp.End()
	if jsp != nil {
		jsp.SetStr("on", strings.Join(shared, ","))
		jsp.SetInt("left_rows", int64(cur.Len()))
		if est >= 0 {
			jsp.SetFloat("est_rows", est)
		}
	}
	var seed *Relation
	if op == cost.OpSemijoin {
		var err error
		if seed, err = projectColumns(shared, cur, g); err != nil {
			return nil, err
		}
		jsp.SetInt("seed_rows", int64(seed.Len()))
	}
	right, err := fragment(seed, jsp)
	if err != nil {
		return nil, err
	}
	jsp.SetInt("right_rows", int64(right.Len()))
	return e.joinRelations(cur, right, sharedVars(cur.Vars, right.Vars), g, jsp)
}

// projectColumns projects a join of fragment results onto the named columns.
// Fragment results are sets and a join of sets is a set, so a projection
// that keeps every column is rel itself or a reordering of its columns;
// only one that drops a column inserts into a set.
func projectColumns(names []string, rel *Relation, g guard) (*Relation, error) {
	if slices.Equal(names, rel.Vars) {
		return rel, nil
	}
	head := make([]query.Arg, len(names))
	for i, n := range names {
		head[i] = query.Variable(n)
	}
	src, row, err := headColumns(head, rel)
	if err != nil {
		return nil, err
	}
	for c := range rel.Vars {
		if !slices.Contains(src, c) {
			set := NewSet(names)
			err := set.insert(rel, src, row, g.err)
			return set.Rows, err
		}
	}
	out := NewRelation(names)
	for c := 0; c < rel.chunks(); c++ {
		if err := g.err(); err != nil {
			return nil, err
		}
		ids, n := rel.chunk(c)
		for j := 0; j < n; j++ {
			b, dst := ids[j*rel.width:], out.extend()
			for k, col := range src {
				dst[k] = b[col]
			}
		}
	}
	return out, nil
}

// evalFragment evaluates fragment i of a JUCQ under g — from the seed when
// there is one — recording a "fragment" span under sp with the plan's
// estimate, when there is one, next to the actual rows.
func (e *Evaluator) evalFragment(f query.Fragment, i int, plan *FragmentPlan, seed *Relation, g guard, sp *trace.Span) (*Relation, error) {
	var fsp *trace.Span
	if sp != nil {
		fsp = sp.Child("fragment")
		defer fsp.End()
		fsp.SetInt("idx", int64(i))
		fsp.SetText("atoms", fragmentAtoms(f.AtomIndexes))
		if plan != nil {
			fsp.SetFloat("est_rows", plan.Est.Card)
		}
	}
	r, err := e.fragmentResult(f, plan, seed, g, fsp)
	if err != nil {
		return nil, err
	}
	fsp.SetInt("rows", int64(r.Len()))
	return r, nil
}

// fragmentResult evaluates a fragment's union — its Members when it has
// them, its UCQ member by member otherwise — through the view cache when
// one is attached: a hit (or a join on a concurrent identical evaluation)
// skips evaluation and returns an immutable renamed view; a miss evaluates
// and may be admitted, priced by the fragment's plan when there is one.
// Outcomes land on the fragment span (cache_hit / cache_bytes in EXPLAIN
// ANALYZE) and on CacheStats for the per-answer cached_fragments count. A
// seeded fragment is only the part of the fragment that joins, never a
// view: it bypasses the cache.
func (e *Evaluator) fragmentResult(f query.Fragment, plan *FragmentPlan, seed *Relation, g guard, fsp *trace.Span) (*Relation, error) {
	eval := func() (*Relation, error) {
		members := f.Members
		if members == nil {
			members = f.UCQ.Lift()
		}
		return e.evalUnion(f.UCQ.HeadNames, members, seed, g, fsp)
	}
	if e.FragCache == nil || seed != nil {
		return eval()
	}
	key := ""
	if plan != nil {
		key = plan.Key
	}
	est := func() float64 {
		switch {
		case plan != nil:
			return plan.Est.Cost
		case e.Cost != nil:
			return e.Cost.UCQ(f.UCQ).Cost
		}
		return -1
	}
	r, out, err := e.FragCache.GetOrEval(f.CQ, key, est, g.err, eval)
	if err != nil {
		return nil, err
	}
	hit := int64(0)
	if out.Hit {
		hit = 1
	}
	if e.CacheStats != nil {
		e.CacheStats.Hits += int(hit)
	}
	if fsp != nil {
		fsp.SetInt("cache_hit", hit)
		if out.Bytes > 0 {
			fsp.SetInt("cache_bytes", out.Bytes)
		}
	}
	return r, nil
}

// --- helpers ---------------------------------------------------------------

func sharedVars(a, b []string) []string {
	var out []string
	for _, v := range a {
		for _, w := range b {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func atomSharesVar(a query.RangeAtom, vars []string) bool {
	for _, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		if !ra.Arg.IsVar() {
			continue
		}
		for _, v := range vars {
			if v == ra.Arg.Var {
				return true
			}
		}
	}
	return false
}
