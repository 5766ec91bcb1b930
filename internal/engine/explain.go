package engine

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/trace"
)

// Plan is the EXPLAIN (without ANALYZE) surface: how a strategy would
// answer a query, rendered from the same prepared value an execution
// consumes, without touching the data. Its tree mirrors the span tree an
// actual execution records, so EXPLAIN and EXPLAIN ANALYZE output line up
// node for node, but carries only estimates — rendering it is
// deterministic, which the golden tests rely on.
type Plan struct {
	Strategy Strategy
	// Cover is the cover underlying the plan (JUCQ-based strategies).
	Cover query.Cover
	// ReformulationCQs counts the CQs the reformulation would evaluate.
	ReformulationCQs int
	// EstimatedCost and EstimatedRows are the model's totals (zero for
	// plain-UCQ strategies whose reformulations are too large to price).
	EstimatedCost float64
	EstimatedRows float64
	// CachedPlan reports the plan came from the plan cache: EstimatedCost
	// (for the JUCQ strategies) and the root's explored count are then those
	// of the constants the query's shape was first planned with.
	CachedPlan bool

	root *trace.Span
}

// Explain renders the plan as an indented operator tree.
func (p *Plan) Explain() string { return trace.Render(p.root, trace.RenderOptions{}) }

// Tree returns the plan as a JSON span tree (no timings).
func (p *Plan) Tree() *trace.SpanJSON { return trace.ToJSON(p.root) }

// explainMaxUCQPlans bounds how many member-CQ operator plans a plain UCQ
// explanation spells out: Example-1-style reformulations have hundreds of
// thousands of members, so the tree shows the first few and elides the
// rest.
const explainMaxUCQPlans = 3

// Plan explains how strategy s would answer q without executing it.
// RefJUCQ requires a cover via PlanWithCover.
func (e *Engine) Plan(q query.CQ, s Strategy) (*Plan, error) {
	return e.plan(q, s, nil)
}

// PlanWithCover explains the JUCQ plan induced by a caller-chosen cover.
func (e *Engine) PlanWithCover(q query.CQ, cover query.Cover) (*Plan, error) {
	return e.plan(q, RefJUCQ, cover)
}

func (e *Engine) plan(q query.CQ, s Strategy, cover query.Cover) (*Plan, error) {
	p, err := e.prepare(q, s, cover, nil)
	if err != nil {
		return nil, err
	}
	return e.explain(&p), nil
}

// explain renders a prepared query as the Plan tree: the shape it would
// evaluate, node for node as the executor would record it, with the cost
// model's estimates in place of actuals. Against a sharded source the tree
// shows the executor's one fan-out, a JUCQ fragment's co-partitioned
// members scattered together; the saturated store stays unsharded, so Sat
// plans carry none.
//
//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) explain(p *prepared) *Plan {
	d := e.d.g.Dict()
	root := trace.New(0).StartSpan("plan")
	root.SetStr("strategy", string(p.strategy))
	root.SetStr("query", query.FormatCQ(d, p.q))
	if p.key != "" {
		root.SetStr("shape", p.shape)
		root.SetStr("classes", p.classes)
	}
	plan := &Plan{
		Strategy: p.strategy, Cover: p.cover, ReformulationCQs: p.cqs,
		EstimatedCost: p.est.Cost, EstimatedRows: p.est.Card, CachedPlan: p.cachedPlan,
		root: root,
	}
	e.traceImplied(root, p)
	switch {
	case p.stream != nil:
		u := root.Child("union")
		u.SetInt("cqs", int64(p.cqs))
		shown := 0
		p.stream.EnumerateCQ(p.reduced, func(cq query.CQ) bool {
			if shown >= explainMaxUCQPlans {
				return false
			}
			explainCQ(u, p.model, d, cq.Lift())
			shown++
			return true
		})
		if p.cqs > shown {
			u.Child("elided").SetInt("cqs", int64(p.cqs-shown))
		}

	case p.jucq != nil:
		// The fragment joins in the plan's order, as the executor runs and
		// traces them: the start fragment, then per step a "semijoin",
		// "hashjoin" or "cross" node with the running estimated cardinality,
		// holding its fragment; each fragment node carries the estimate the
		// plan priced it at and its members. The view cache keeps whole
		// fragments, so with it on a probe is a hash join.
		root.SetStr("cover", p.cover.String())
		root.SetBool("cached", p.cachedPlan)
		if p.explored != nil {
			root.SetInt("explored", int64(len(p.explored)))
		}
		root.SetFloat("est_cost", p.est.Cost)
		frags := p.fragEsts
		// GCov reports its cover's cost only; the cardinality is the last
		// join's (the same number p.est carries for a caller's cover).
		plan.EstimatedRows = p.model.JoinFragments(frags, func(st cost.PlanStep) {
			parent := root
			if st.Op != cost.OpScan {
				op := st.Op
				if op == cost.OpSemijoin && e.views != nil {
					op = cost.OpHashJoin
				}
				parent = root.Child(op)
				parent.SetFloat("est_rows", st.Out.Card)
			}
			f := p.jucq.Fragments[st.Index]
			fsp := parent.Child("fragment")
			fsp.SetInt("idx", int64(st.Index))
			fsp.SetStr("atoms", query.Cover{f.AtomIndexes}.String())
			fsp.SetStr("q", query.FormatCQ(d, f.CQ))
			fsp.SetInt("cqs", int64(fragmentCQs(f)))
			fsp.SetFloat("est_rows", frags[st.Index].Card)
			fsp.SetFloat("est_cost", frags[st.Index].Cost)
			explainUnion(fsp, p.model, d, f.Members, e.shards)
		}).Card
		root.Child("project").SetStr("cols", strings.Join(p.jucq.HeadNames, ","))

	case p.program != nil:
		// The Datalog engine evaluates bottom-up to fixpoint; the cost model
		// does not price it, so the plan is purely structural.
		root.Child("encode")
		root.Child("fixpoint")

	default:
		explainCQ(root, p.model, d, p.reduced.Lift())
	}
	return plan
}

// traceImplied adds under sp one "implied" node per atom the reduction
// dropped from p's query: the atom, the atom left that implies it, and the
// constraint through which it does, as text made only when the tree is read.
// Atoms are numbered t1, t2, … in the posed query, as covers number them.
//
//reflint:nospanend an implied node is a rendered line, never timed
func (e *Engine) traceImplied(sp *trace.Span, p *prepared) {
	if sp == nil {
		return
	}
	d := e.d.g.Dict()
	for _, im := range p.implied {
		n := sp.Child("implied")
		n.SetText("atom", atomText{d, p.q, im.Atom})
		n.SetText("by", atomText{d, p.q, im.By})
		n.SetText("constraint", constraintText{e.Reformulator(), p.q, im})
	}
}

// atomText is atom i of q as "t<i+1> s p o".
type atomText struct {
	d *dict.Dict
	q query.CQ
	i int
}

func (t atomText) String() string {
	return "t" + strconv.Itoa(t.i+1) + " " + query.FormatAtom(t.d, t.q.Atoms[t.i])
}

// constraintText is the constraint through which an implied atom follows.
type constraintText struct {
	r  *core.Reformulator
	q  query.CQ
	im core.Implied
}

func (t constraintText) String() string { return t.r.Constraint(t.q, t.im) }

// explainUnion adds under parent the "union" node of a JUCQ fragment's
// members — merged, or the range reformulation's — with one "cq" node per
// member; both are small, so no elision is needed. Against shards the
// co-partitioned group evaluates shard-locally in one "scatter" node
// (op=ucq), the rest stay central, as in the executor.
//
//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func explainUnion(parent *trace.Span, m *cost.Model, d *dict.Dict, members []query.RangeCQ, shards int) {
	u := parent.Child("union")
	u.SetInt("cqs", int64(len(members)))
	if shards > 1 {
		co, rest := exec.SplitCoPartitioned(members)
		if len(co) > 0 {
			sc := u.Child("scatter")
			sc.SetInt("n", int64(shards))
			sc.SetStr("op", "ucq")
			sc.SetInt("cqs", int64(len(co)))
			for _, cq := range co {
				explainCQ(sc, m, d, cq)
			}
		}
		members = rest
	}
	for _, cq := range members {
		explainCQ(u, m, d, cq)
	}
}

// explainCQ adds under parent the plan the cost model prices — and the
// executor runs — for one CQ in the evaluator's atom form: a "cq" node with
// the operators of each step as the executor records them, a scan for the
// first atom, then per atom an index-nested-loop join, a hash join the
// atom's scan streams into (streamsInto), or a scan and the materialized
// join of its result, carrying the estimated cardinalities.
//
//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func explainCQ(parent *trace.Span, m *cost.Model, d *dict.Dict, q query.RangeCQ) {
	csp := parent.Child("cq")
	csp.SetStr("q", q.Format(d))
	var steps []cost.PlanStep
	est := m.RangeCQ(q, func(st cost.PlanStep) { steps = append(steps, st) })
	csp.SetFloat("est_rows", est.Card)
	csp.SetFloat("est_cost", est.Cost)
	running := 0.0
	for _, st := range steps {
		a := q.Atoms[st.Index]
		streamed := st.Op == cost.OpHashJoin && streamsInto(a, st.Atom.Card, running)
		running = st.Out.Card
		if st.Op == cost.OpINLJ || streamed {
			op := csp.Child(st.Op)
			op.SetStr("atom", a.Format(d))
			op.SetFloat("est_rows", st.Out.Card)
			continue
		}
		scan := csp.Child(cost.OpScan)
		scan.SetStr("atom", a.Format(d))
		scan.SetFloat("est_rows", st.Atom.Card)
		if st.Op != cost.OpScan {
			csp.Child(st.Op).SetFloat("est_rows", st.Out.Card)
		}
	}
}

// streamsInto reports whether the executor streams a hashed atom's scan into
// its join instead of scanning it first: the atom repeats no variable, so
// its scan reads whole index blocks, and its rows are at least the running
// result's, so the hash join builds on the running result and the scan is
// its probe side. EXPLAIN decides on estimates what the executor decides on
// exact counts.
func streamsInto(a query.RangeAtom, rows, running float64) bool {
	var vars [3]string
	n := 0
	for _, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		if !ra.Arg.IsVar() {
			continue
		}
		if slices.Contains(vars[:n], ra.Arg.Var) {
			return false
		}
		vars[n], n = ra.Arg.Var, n+1
	}
	return rows >= running
}
