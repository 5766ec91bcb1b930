package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file evaluates range UCQs (the ref-range reformulation): each range
// CQ scans its atoms with interval-constrained patterns (one "rangescan"
// operator per atom), joins them with the greedy materialized-join order,
// then applies the hierarchy expansions and projects the head. Identical
// range atoms across the union's CQs share one scan via a per-evaluation
// memo.

// EvalRangeUCQContext evaluates a union of range CQs with set semantics,
// bounded by ctx; the whole union shares one deadline and one cancellation
// signal.
func (e *Evaluator) EvalRangeUCQContext(ctx context.Context, u query.RangeUCQ) (*Relation, error) {
	if len(u.CQs) == 0 {
		return NewRelation(u.HeadNames), nil
	}
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	if sh := e.scatterSource(); sh != nil && rangeUCQCoPartitioned(u) {
		// Every CQ shares one subject variable across its atoms: evaluate
		// the whole union per shard (keeping the scan/join-prefix memos
		// shard-local) and merge once at the end.
		return e.evalRangeUCQScatter(sh, u, g, e.Span)
	}
	var usp *trace.Span
	if e.Span != nil {
		usp = e.Span.Child("union")
		defer usp.End()
		usp.SetInt("cqs", int64(len(u.CQs)))
	}
	memo := map[string]*Relation{}
	jmemo := map[string]*Relation{}
	out := NewRelation(u.HeadNames)
	done := 0
	for _, cq := range u.CQs {
		if err := g.err(); err != nil {
			return nil, fmt.Errorf("%w (after %d/%d range CQs)", err, done, len(u.CQs))
		}
		r, err := e.evalRangeCQ(u.HeadNames, cq, g, usp, memo, jmemo)
		if err != nil {
			return nil, err
		}
		done++
		if err := appendRelation(out, r, g.err); err != nil {
			return nil, err
		}
		g.addUnioned(r.Len())
		if err := e.checkRows(out.Len()); err != nil {
			return nil, err
		}
	}
	if err := out.DistinctCheck(g.err); err != nil {
		return nil, err
	}
	if usp != nil {
		usp.SetInt("rows", int64(out.Len()))
		usp.End()
	}
	return out, nil
}

// rangeProbeFactor decides when a connected atom is probed instead of
// materialized: probe when its range count exceeds the current relation's
// size by this factor (each probe is a couple of binary searches, so a
// small relation probing a huge range beats scanning the range).
const rangeProbeFactor = 8

// evalRangeCQ evaluates one range CQ: materialize the smallest atom, then
// greedy-join the rest (connected first, then smallest range count). A
// connected atom whose range count dwarfs the current relation is probed
// with per-binding index lookups (rangeprobe) rather than materialized;
// expansions are applied in atom order afterwards, then the head projects.
// The union's CQs differ in only a few alternatives per atom, so the join
// prefixes they share are memoized in jmemo (keyed by the sequence of
// joined atoms): the greedy order is deterministic in the atom set, and
// joins never mutate their inputs, so a memoized intermediate is reusable
// as-is.
func (e *Evaluator) evalRangeCQ(headNames []string, q query.RangeCQ, g guard, sp *trace.Span, memo, jmemo map[string]*Relation) (*Relation, error) {
	if len(q.Atoms) == 0 {
		return nil, errors.New("exec: empty range BGP")
	}
	var csp *trace.Span
	if sp != nil {
		csp = sp.Child("cq")
		defer csp.End()
		parts := make([]string, len(q.Atoms))
		for i, a := range q.Atoms {
			parts[i] = query.FormatRangeAtom(a)
		}
		csp.SetStr("q", strings.Join(parts, ", "))
	}
	counts := make([]int, len(q.Atoms))
	varsOf := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		pat, _ := rangeAtomPattern(a)
		counts[i] = e.st.CountRange(pat)
		_, varsOf[i] = rangeAtomKey(a)
	}
	start := 0
	//reflint:noguard bookkeeping bounded by atom count
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[start] {
			start = i
		}
	}
	cur, err := e.scanRangeAtom(q.Atoms[start], g, csp, memo)
	if err != nil {
		return nil, err
	}
	prefix := query.FormatRangeAtom(q.Atoms[start])
	remaining := make([]int, 0, len(q.Atoms)-1)
	for i := range q.Atoms {
		if i != start {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		if err := g.err(); err != nil {
			return nil, err
		}
		// Pick the atom with the least estimated work: a connected atom
		// costs about its range count (scan or probe), a disconnected one
		// costs the cross-product size. A 10-row disconnected atom is a
		// better next step than probing a 10k-row connected one: the tiny
		// cross product binds more variables for the probes that follow.
		best, bestConnected := -1, false
		bestWork := 0.0
		for i, ai := range remaining {
			connected := len(sharedVars(cur.Vars, varsOf[ai])) > 0
			w := float64(counts[ai])
			if !connected {
				w = float64(maxInt(cur.Len(), 1)) * float64(maxInt(counts[ai], 1))
			}
			if best == -1 || w < bestWork || (w == bestWork && connected && !bestConnected) {
				best, bestConnected, bestWork = i, connected, w
			}
		}
		ai := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		prefix += "‖" + query.FormatRangeAtom(q.Atoms[ai])
		if cached, ok := jmemo[prefix]; ok {
			cur = cached
			continue
		}
		if bestConnected && counts[ai] > rangeProbeFactor*maxInt(cur.Len(), 1) {
			cur, err = e.rangeProbeJoin(cur, q.Atoms[ai], g, csp)
			if err != nil {
				return nil, err
			}
			jmemo[prefix] = cur
			continue
		}
		next, err := e.scanRangeAtom(q.Atoms[ai], g, csp, memo)
		if err != nil {
			return nil, err
		}
		joined, err := e.materializedJoin(cur, next, g, csp, -1)
		if err != nil {
			return nil, err
		}
		cur = joined
		jmemo[prefix] = cur
	}
	// Expansions run after the joins, in atom order: an unbound output
	// appends hierarchy ancestors as new bindings; a bound output (an
	// earlier expansion or a reformulation constant) filters instead,
	// which is exactly the binding-consistency intersection of the UCQ
	// enumeration.
	for _, a := range q.Atoms {
		if a.Expand == nil {
			continue
		}
		var err error
		cur, err = e.expandRelation(cur, a.Expand, g, csp)
		if err != nil {
			return nil, err
		}
	}
	var psp *trace.Span
	if csp != nil {
		psp = csp.Child("project")
		defer psp.End()
	}
	out, err := e.projectHead(headNames, q.Head, cur, g)
	if err != nil {
		return nil, err
	}
	if err := out.DistinctCheck(g.err); err != nil {
		return nil, err
	}
	if psp != nil {
		psp.SetInt("rows", int64(out.Len()))
		psp.End()
	}
	if csp != nil {
		csp.SetInt("rows", int64(out.Len()))
		csp.End()
	}
	return out, nil
}

// rangeAtomKey canonicalizes a range atom for the scan memo: constants and
// ranges by value, variables by first-occurrence index (the scan result is
// the same relation up to column names). It also returns the atom's
// distinct variables in column order.
func rangeAtomKey(a query.RangeAtom) (string, []string) {
	var sb strings.Builder
	var vars []string
	varNum := map[string]int{}
	num := func(v string) int {
		n, ok := varNum[v]
		if !ok {
			n = len(vars)
			varNum[v] = n
			vars = append(vars, v)
		}
		return n
	}
	for _, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		switch {
		case ra.Ranges != nil:
			sb.WriteByte('r')
			for _, r := range ra.Ranges {
				fmt.Fprintf(&sb, "%d-%d,", r.Lo, r.Hi)
			}
			if ra.Arg.IsVar() {
				fmt.Fprintf(&sb, "v%d", num(ra.Arg.Var))
			}
		case ra.Arg.IsVar():
			fmt.Fprintf(&sb, "v%d", num(ra.Arg.Var))
		default:
			fmt.Fprintf(&sb, "c%d", ra.Arg.ID)
		}
		sb.WriteByte(';')
	}
	return sb.String(), vars
}

// maxInt returns the larger of two ints.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// rangeAtomPattern converts a range atom into the range pattern its scan
// runs (constants become exact ranges) plus the positions each variable
// occupies.
func rangeAtomPattern(a query.RangeAtom) (storage.RangePattern, map[string][]int) {
	var pat storage.RangePattern
	varPos := map[string][]int{}
	for i, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		var rs []storage.IDRange
		switch {
		case ra.Ranges != nil:
			rs = ra.Ranges
		case !ra.Arg.IsVar():
			rs = []storage.IDRange{storage.Exact(ra.Arg.ID)}
		}
		switch i {
		case 0:
			pat.S = rs
		case 1:
			pat.P = rs
		default:
			pat.O = rs
		}
		if ra.Arg.IsVar() {
			varPos[ra.Arg.Var] = append(varPos[ra.Arg.Var], i)
		}
	}
	return pat, varPos
}

// rangeProbeJoin joins the current relation with a range atom by probing
// the indexes once per distinct binding of the shared variables, instead of
// materializing the atom's full range scan: each probe narrows the shared
// positions to the bound IDs, so only matching triples are ever touched.
func (e *Evaluator) rangeProbeJoin(cur *Relation, a query.RangeAtom, g guard, sp *trace.Span) (*Relation, error) {
	var jsp *trace.Span
	if sp != nil {
		jsp = sp.Child("rangeprobe")
		defer jsp.End()
		jsp.SetStr("atom", query.FormatRangeAtom(a))
		jsp.SetInt("left_rows", int64(cur.Len()))
	}
	pat, varPos := rangeAtomPattern(a)
	_, vars := rangeAtomKey(a)
	// Split the atom's variables into bound (probe keys) and free (new
	// output columns), keeping the atom's column order for the free ones.
	var bound, free []string
	var boundCols []int
	for _, v := range vars {
		if c := cur.ColumnIndex(v); c != -1 {
			bound = append(bound, v)
			boundCols = append(boundCols, c)
		} else {
			free = append(free, v)
		}
	}
	out := NewRelation(append(append([]string(nil), cur.Vars...), free...))
	row := make([]dict.ID, len(out.Vars))
	// Probe once per distinct key: rows sharing bound values reuse the
	// matched triples.
	type probeResult struct{ rows [][3]dict.ID }
	cache := map[string]*probeResult{}
	// Probe keys are built into a reused byte buffer; the only string
	// materialized per *distinct* key is the one the cache insert needs
	// (map lookups on string(keyBuf) don't allocate).
	keyBuf := make([]byte, 0, 64)
	steps := 0
	scanned := 0
	for i := 0; i < cur.Len(); i++ {
		steps++
		if steps&(checkEvery-1) == 0 {
			if err := g.err(); err != nil {
				return nil, err
			}
		}
		r := cur.Row(i)
		keyBuf = keyBuf[:0]
		for _, c := range boundCols {
			keyBuf = strconv.AppendUint(keyBuf, uint64(r[c]), 10)
			keyBuf = append(keyBuf, ',')
		}
		pr, ok := cache[string(keyBuf)]
		if !ok {
			pr = &probeResult{}
			cache[string(keyBuf)] = pr
			// Narrow the probe pattern: every bound position becomes the
			// row's exact ID, unless it falls outside the atom's ranges
			// (then the probe is empty).
			ppat := pat
			feasible := true
			for bi, v := range bound {
				id := r[boundCols[bi]]
				for _, pos := range varPos[v] {
					base := [3][]storage.IDRange{pat.S, pat.P, pat.O}[pos]
					if base != nil && !storage.InRanges(base, id) {
						feasible = false
						break
					}
					switch pos {
					case 0:
						ppat.S = []storage.IDRange{storage.Exact(id)}
					case 1:
						ppat.P = []storage.IDRange{storage.Exact(id)}
					default:
						ppat.O = []storage.IDRange{storage.Exact(id)}
					}
				}
				if !feasible {
					break
				}
			}
			if feasible {
				var stopErr error
				e.st.EachRange(ppat, func(t dict.Triple) bool {
					steps++
					if steps&(checkEvery-1) == 0 {
						if err := g.err(); err != nil {
							stopErr = err
							return false
						}
					}
					trip := [3]dict.ID{t.S, t.P, t.O}
					// Enforce repeated free variables (bound ones are
					// already pinned by the probe pattern).
					for _, v := range free {
						positions := varPos[v]
						for _, p := range positions[1:] {
							if trip[p] != trip[positions[0]] {
								return true
							}
						}
					}
					pr.rows = append(pr.rows, trip)
					return true
				})
				if stopErr != nil {
					return nil, stopErr
				}
				scanned += len(pr.rows)
			}
		}
		for _, trip := range pr.rows {
			steps++
			if steps&(checkEvery-1) == 0 {
				if err := g.err(); err != nil {
					return nil, err
				}
			}
			copy(row, r)
			for fi, v := range free {
				row[len(cur.Vars)+fi] = trip[varPos[v][0]]
			}
			if len(row) == 0 {
				out.AppendEmpty()
			} else {
				out.Append(row)
			}
			if err := e.checkRows(out.Len()); err != nil {
				return nil, err
			}
		}
	}
	g.addScanned(scanned)
	g.addJoined(out.Len())
	if jsp != nil {
		jsp.SetInt("scanned", int64(scanned))
		jsp.SetInt("rows", int64(out.Len()))
		jsp.End()
	}
	return out, nil
}

// rangeUCQCoPartitioned reports whether every CQ of the union is
// co-partitioned (see coPartitionedRangeCQ) — the shape where the whole
// union can be evaluated shard-locally and merged once.
func rangeUCQCoPartitioned(u query.RangeUCQ) bool {
	for _, cq := range u.CQs {
		if !coPartitionedRangeCQ(cq) {
			return false
		}
	}
	return len(u.CQs) > 0
}

// scanRangeAtom materializes one range atom into a relation over its
// variables (plain and capture), enforcing repeated-variable equality.
// Results are memoized per evaluation under the canonical atom key.
// Against a sharded source, a scan whose subject is unconstrained fans
// out to every shard in parallel.
func (e *Evaluator) scanRangeAtom(a query.RangeAtom, g guard, sp *trace.Span, memo map[string]*Relation) (*Relation, error) {
	key, vars := rangeAtomKey(a)
	if cached, ok := memo[key]; ok {
		return cached.RenamedView(vars)
	}
	pat, varPos := rangeAtomPattern(a)
	scan := func(src Source, rel *Relation) error {
		row := make([]dict.ID, len(vars))
		var stopErr error
		steps := 0
		src.EachRange(pat, func(t dict.Triple) bool {
			steps++
			if steps&(checkEvery-1) == 0 {
				if err := g.err(); err != nil {
					stopErr = err
					return false
				}
			}
			trip := [3]dict.ID{t.S, t.P, t.O}
			for vi, v := range vars {
				positions := varPos[v]
				row[vi] = trip[positions[0]]
				for _, p := range positions[1:] {
					if trip[p] != row[vi] {
						goto skip
					}
				}
			}
			if len(row) == 0 {
				rel.AppendEmpty()
			} else {
				rel.Append(row)
			}
			if e.Budget.MaxRows > 0 && rel.Len() > e.Budget.MaxRows {
				stopErr = fmt.Errorf("%w: range scan of %d+ rows exceeds cap %d", ErrBudgetExceeded, rel.Len(), e.Budget.MaxRows)
				return false
			}
		skip:
			return true
		})
		return stopErr
	}
	var rel *Relation
	if sh := e.scatterSource(); sh != nil && pat.S == nil {
		r, err := e.scatterScan(sh, "rangescan", query.FormatRangeAtom(a), vars, g, sp, -1, scan)
		if err != nil {
			return nil, err
		}
		rel = r
	} else {
		var ssp *trace.Span
		if sp != nil {
			ssp = sp.Child("rangescan")
			defer ssp.End()
			ssp.SetStr("atom", query.FormatRangeAtom(a))
		}
		rel = NewRelation(vars)
		if err := scan(e.st, rel); err != nil {
			return nil, err
		}
		g.addScanned(rel.Len())
		if ssp != nil {
			ssp.SetInt("rows", int64(rel.Len()))
			ssp.End()
		}
	}
	canonical := make([]string, len(vars))
	for i := range canonical {
		canonical[i] = fmt.Sprintf("v%d", i)
	}
	view, err := rel.RenamedView(canonical)
	if err != nil {
		return nil, err
	}
	memo[key] = view
	return rel, nil
}

// expandRelation applies one hierarchy expansion to the joined relation.
func (e *Evaluator) expandRelation(rel *Relation, exp *query.Expansion, g guard, sp *trace.Span) (*Relation, error) {
	var esp *trace.Span
	if sp != nil {
		esp = sp.Child("expand")
		defer esp.End()
		esp.SetStr("in", exp.In)
		if exp.Out.IsVar() {
			esp.SetStr("out", exp.Out.Var)
		}
		esp.SetInt("left_rows", int64(rel.Len()))
	}
	inCol := rel.ColumnIndex(exp.In)
	if inCol == -1 {
		return nil, fmt.Errorf("exec: expansion input %s missing from relation", exp.In)
	}
	outCol := -1
	var want dict.ID
	haveWant := false
	if exp.Out.IsVar() {
		outCol = rel.ColumnIndex(exp.Out.Var)
	} else {
		want, haveWant = exp.Out.ID, true
	}
	appendMode := exp.Out.IsVar() && outCol == -1
	var out *Relation
	if appendMode {
		out = NewRelation(append(append([]string(nil), rel.Vars...), exp.Out.Var))
	} else {
		out = NewRelation(append([]string(nil), rel.Vars...))
	}
	row := make([]dict.ID, len(out.Vars))
	steps := 0
	for i := 0; i < rel.Len(); i++ {
		steps++
		if steps&(checkEvery-1) == 0 {
			if err := g.err(); err != nil {
				return nil, err
			}
		}
		r := rel.Row(i)
		in := r[inCol]
		if appendMode {
			copy(row, r)
			if exp.Reflexive {
				row[len(r)] = in
				out.Append(row)
			}
			for _, anc := range exp.Table[in] {
				steps++
				if steps&(checkEvery-1) == 0 {
					if err := g.err(); err != nil {
						return nil, err
					}
				}
				row[len(r)] = anc
				out.Append(row)
			}
		} else {
			w := want
			if !haveWant {
				w = r[outCol]
			}
			if (exp.Reflexive && w == in) || containsSortedID(exp.Table[in], w) {
				out.Append(r)
			}
		}
		if err := e.checkRows(out.Len()); err != nil {
			return nil, err
		}
	}
	g.addJoined(out.Len())
	if esp != nil {
		esp.SetInt("rows", int64(out.Len()))
		esp.End()
	}
	return out, nil
}

// containsSortedID binary-searches a sorted ID slice (the schema closures
// are sorted).
func containsSortedID(ids []dict.ID, id dict.ID) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}
