// Package cost implements the cost estimation function c of the paper (§4):
// given a JUCQ (or CQ/UCQ), it returns the estimated cost of evaluating it
// through the store, computed from database-textbook formulas over the
// collected statistics (scan extents, hash-join build/probe costs, and
// join output cardinalities under the independence and containment-of-value
// assumptions). GCov searches the cover space with this function.
//
// The package also owns the plan rule the function prices — the greedy join
// order (Pick) and the probe-or-hash policy (PreferINLJ), stated in DESIGN
// §10 "Evaluation": the executor runs its plans by calling them, so what is
// priced here is what runs.
package cost

import (
	"slices"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/stats"
)

// Weights of the cost components. The absolute scale is irrelevant (GCov
// only compares costs); the ratios mirror a main-memory RDBMS: probing an
// index costs a few comparisons, scanning and materializing a tuple costs
// one unit, hashing a build tuple costs about two.
const (
	CScan  = 1.0 // per tuple scanned and materialized
	CProbe = 6.0 // per index lookup in a nested-loop join
	CBuild = 2.0 // per tuple inserted in a hash table
	COut   = 1.0 // per tuple produced by a join
)

// Estimate describes one (sub)query: estimated evaluation cost, output
// cardinality, and per-variable distinct-value counts (the V(R, a) of the
// textbook formulas).
type Estimate struct {
	Cost float64
	Card float64
	V    map[string]float64
}

// Model estimates evaluation costs from statistics.
type Model struct {
	st *stats.Stats
	// params, when non-nil, are the values of the parameters in the shapes
	// being priced (see Bind).
	params []dict.ID
}

// NewModel returns a cost model over the statistics.
func NewModel(st *stats.Stats) *Model { return &Model{st: st} }

// Bind returns a model that prices query shapes (query.Lift) as the queries
// they are with params bound: every atom's estimate, plain or ranged, reads
// the statistics of the parameter's value. The plan cache plans a shape with
// it, so a plan is priced on the constants of the request that missed.
func (m *Model) Bind(params []dict.ID) *Model {
	bound := *m
	bound.params = params
	return &bound
}

// Atom estimates a single triple-pattern scan.
func (m *Model) Atom(a query.Atom) Estimate {
	if m.params != nil {
		a.S, a.O = a.S.Bind(m.params), a.O.Bind(m.params)
	}
	pat := a.Pattern()
	card := m.st.PatternCard(pat)
	est := Estimate{Cost: CScan * card, Card: card, V: map[string]float64{}}
	for i, arg := range [3]query.Arg{a.S, a.P, a.O} {
		if !arg.IsVar() {
			continue
		}
		pos := [3]byte{'s', 'p', 'o'}[i]
		v := m.st.DistinctVar(pat, pos)
		if old, ok := est.V[arg.Var]; !ok || v < old {
			est.V[arg.Var] = v
		}
	}
	return est
}

// The plan rule. A conjunctive body — a CQ's atoms, a JUCQ's fragments — is
// joined greedily, and this is the one statement of how: Pick orders the
// operands, PreferINLJ decides how an operand is joined in. The executor
// calls both to run a plan, plan (below) calls both to price one, and EXPLAIN
// prints the steps plan emits — so the three cannot disagree about anything
// but cardinalities (the executor sees actual ones).

// Operator names of a greedy plan's steps: the executor's span names and
// EXPLAIN's node names.
const (
	OpScan     = "scan"
	OpINLJ     = "inlj"
	OpHashJoin = "hashjoin"
	OpCross    = "cross" // a hash join with no shared variable
	// OpSemijoin joins a fragment by probing: the running result's bindings
	// of the shared variables seed the fragment's members, so only the
	// fragment rows that can join are computed, then hashed in.
	OpSemijoin = "semijoin"
)

// Pick is the greedy join order: of the remaining operands take one
// connected to the running result (sharing a variable with it) before one
// that is not, within each kind the one of lowest cardinality, the earliest
// on a tie. It returns the position in remaining and whether that operand
// is connected. A nil connected means nothing is — the first pick, which
// starts a plan from its smallest operand.
func Pick(remaining []int, card func(int) float64, connected func(int) bool) (pos int, isConnected bool) {
	best, bestConnected := -1, false
	var bestCard float64
	for i, op := range remaining {
		c, conn := card(op), connected != nil && connected(op)
		switch {
		case best == -1,
			conn && !bestConnected,
			conn == bestConnected && c < bestCard:
			best, bestConnected, bestCard = i, conn, c
		}
	}
	return best, bestConnected
}

// PreferINLJ decides how a connected operand joins a running result of
// curRows rows: probed once per row (true) — an atom through the index, a
// fragment by seeding its members — or computed in full — extent rows — and
// hash-joined. Probing costs ~|cur|·log N, hashing the operand's whole
// extent.
func PreferINLJ(curRows, extent float64) bool {
	return curRows*8 < extent || curRows <= 64
}

// PlanStep is one step of a greedy plan: the operand it starts from, read in
// full (OpScan: an atom's scan, a fragment's materialization), then one join
// per further operand.
type PlanStep struct {
	// Op is OpScan, OpINLJ, OpSemijoin, OpHashJoin or OpCross.
	Op string
	// Index is the operand's position among the plan's inputs (q.Atoms,
	// the fragment estimates).
	Index int
	// Atom is the operand's own estimate.
	Atom Estimate
	// Out is the running estimate after this step.
	Out Estimate
}

// plan prices the greedy plan over already-estimated operands and reports
// its steps to emit (nil on the GCov hot path). Both kinds of operand follow
// one rule: start from the smallest, and join a connected operand by probing
// when PreferINLJ says so, by hashing otherwise. The operands are a CQ's
// atoms — scanned or probed through the index — or, with atoms false, a
// JUCQ's fragments, materialized or probed by a semijoin. A fragment's own
// cost is paid in full either way and a semijoin step is priced as the hash
// join it replaces: an upper bound of what runs, since a reduced fragment
// computes a subset of the rows. (Pricing probes by their lookups needs
// estimates that hold for the reduced members, which the model lacks.)
func (m *Model) plan(ops []Estimate, atoms bool, emit func(PlanStep)) Estimate {
	if len(ops) == 0 {
		return Estimate{}
	}
	var buf [8]int
	remaining := buf[:0]
	for i := range ops {
		remaining = append(remaining, i)
	}
	card := func(i int) float64 { return ops[i].Card }
	start, _ := Pick(remaining, card, nil)
	first := remaining[start]
	remaining = append(remaining[:start], remaining[start+1:]...)
	cur, total := ops[first], 0.0
	if atoms {
		cur.Cost = CScan * cur.Card
		total = cur.Cost
	} else {
		for _, f := range ops {
			total += f.Cost
		}
	}
	if emit != nil {
		emit(PlanStep{Op: OpScan, Index: first, Atom: ops[first], Out: cur})
	}
	connected := func(i int) bool { return sharesVar(ops[i].V, cur.V) }
	for len(remaining) > 0 {
		pos, conn := Pick(remaining, card, connected)
		i := remaining[pos]
		remaining = append(remaining[:pos], remaining[pos+1:]...)
		next := ops[i]
		out := joinEstimate(cur, next)
		op, probe := OpHashJoin, conn && PreferINLJ(cur.Card, next.Card)
		if !conn {
			op = OpCross
		}
		switch {
		case !atoms:
			total += CBuild*minF(cur.Card, next.Card) + CScan*maxF(cur.Card, next.Card) + COut*out.Card
			if probe {
				op = OpSemijoin
			}
		case probe:
			total += CProbe*cur.Card + COut*out.Card
			op = OpINLJ
		default:
			total += CScan*next.Card + CBuild*minF(cur.Card, next.Card) + COut*out.Card
		}
		cur = out
		if emit != nil {
			emit(PlanStep{Op: op, Index: i, Atom: next, Out: cur})
		}
	}
	cur.Cost = total
	return cur
}

// CQ estimates a conjunctive query by the plan the executor runs for it.
func (m *Model) CQ(q query.CQ) Estimate {
	var buf [8]Estimate
	ests := buf[:0]
	for _, a := range q.Atoms {
		ests = append(ests, m.Atom(a))
	}
	return m.plan(ests, true, nil)
}

// UCQ estimates a union: costs and cardinalities add up (set-semantics
// dedup can only shrink the result; the upper bound keeps the model
// simple and monotone).
func (m *Model) UCQ(u query.UCQ) Estimate {
	out := Estimate{V: map[string]float64{}}
	for _, cq := range u.CQs {
		e := m.CQ(cq)
		out.Cost += e.Cost
		out.Card += e.Card
		for v, n := range e.V {
			out.V[v] += n
		}
	}
	for v := range out.V {
		if out.V[v] > out.Card {
			out.V[v] = out.Card
		}
	}
	return out
}

// JUCQ estimates a join of fragment UCQs: the fragments' own costs plus the
// plan joining their results.
func (m *Model) JUCQ(j query.JUCQ) Estimate {
	frags := make([]Estimate, len(j.Fragments))
	for i, f := range j.Fragments {
		frags[i] = m.UCQ(f.UCQ)
	}
	return m.JoinFragments(frags, nil)
}

// JoinFragments combines precomputed fragment estimates into the JUCQ
// estimate; GCov uses it to re-price candidate covers without
// re-estimating cached fragments. emit, when non-nil, receives the plan's
// steps in order: the start fragment, then one join per further fragment
// (EXPLAIN's fragment and join nodes).
func (m *Model) JoinFragments(frags []Estimate, emit func(PlanStep)) Estimate {
	return m.plan(frags, false, emit)
}

// Join applies the textbook join-size formula to two sub-estimates — the
// executor uses it to carry a running estimated cardinality alongside each
// actual operator result when tracing is on.
func Join(a, b Estimate) Estimate { return joinEstimate(a, b) }

// joinEstimate applies the textbook join-size formula:
// |A ⋈ B| = |A|·|B| / Π_v max(V(A,v), V(B,v)) over shared variables v,
// divided in variable-name order so that equal inputs give equal bits.
func joinEstimate(a, b Estimate) Estimate {
	var buf [8]string
	shared := buf[:0]
	for v := range a.V {
		if _, ok := b.V[v]; ok {
			shared = append(shared, v)
		}
	}
	slices.Sort(shared)
	card := a.Card * b.Card
	for _, v := range shared {
		card /= maxF(maxF(a.V[v], b.V[v]), 1)
	}
	out := Estimate{Card: card, V: map[string]float64{}}
	for v, va := range a.V {
		out.V[v] = va
		if vb, ok := b.V[v]; ok && vb < va {
			out.V[v] = vb
		}
	}
	for v, vb := range b.V {
		if _, ok := out.V[v]; !ok {
			out.V[v] = vb
		}
	}
	for v := range out.V {
		if out.V[v] > out.Card {
			out.V[v] = maxF(out.Card, 1)
		}
	}
	return out
}

func sharesVar(a, b map[string]float64) bool {
	for v := range a {
		if _, ok := b[v]; ok {
			return true
		}
	}
	return false
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
