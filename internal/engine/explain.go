package engine

import (
	"strings"

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
	// CachedPlan reports the cover came from the plan cache (RefGCov).
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
// shows the executor's scatter nodes; the saturated store stays unsharded,
// so Sat plans carry none.
//
//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) explain(p *prepared) *Plan {
	e.price(p)
	d := e.g.Dict()
	root := trace.New(0).StartSpan("plan")
	root.SetStr("strategy", string(p.strategy))
	root.SetStr("query", query.FormatCQ(d, p.q))
	plan := &Plan{
		Strategy: p.strategy, Cover: p.cover, ReformulationCQs: p.cqs,
		EstimatedCost: p.est.Cost, EstimatedRows: p.est.Card, CachedPlan: p.cachedPlan,
		root: root,
	}
	switch {
	case p.stream != nil:
		u := root.Child("union")
		u.SetInt("cqs", int64(p.cqs))
		shown := 0
		p.stream.EnumerateCQ(p.q, func(cq query.CQ) bool {
			if shown >= explainMaxUCQPlans {
				return false
			}
			explainCQ(u, p.model, d, cq, e.Shards())
			shown++
			return true
		})
		if p.cqs > shown {
			u.Child("elided").SetInt("cqs", int64(p.cqs-shown))
		}

	case p.jucq != nil:
		// One "fragment" node per cover block, then "join" nodes in the
		// cost model's greedy order with the running estimated cardinality
		// — the same order EXPLAIN ANALYZE traces show when the estimates
		// track reality.
		root.SetStr("cover", p.cover.String())
		if p.key != "" {
			root.SetBool("cached", p.cachedPlan)
			root.SetInt("explored", int64(len(p.explored)))
		}
		root.SetFloat("est_cost", p.est.Cost)
		frags := make([]cost.Estimate, len(p.jucq.Fragments))
		for i, f := range p.jucq.Fragments {
			frags[i] = p.model.UCQ(f.UCQ)
			fsp := root.Child("fragment")
			fsp.SetInt("idx", int64(i))
			fsp.SetStr("atoms", query.Cover{f.AtomIndexes}.String())
			fsp.SetStr("q", query.FormatCQ(d, f.CQ))
			fsp.SetInt("cqs", int64(len(f.UCQ.CQs)))
			fsp.SetFloat("est_rows", frags[i].Card)
			fsp.SetFloat("est_cost", frags[i].Cost)
			if op := fragmentScatterOp(f.UCQ, e.Shards()); op != "" {
				sc := fsp.Child("scatter")
				sc.SetInt("n", int64(e.Shards()))
				sc.SetStr("op", op)
			}
		}
		out := frags[0]
		for _, step := range joinOrder(frags) {
			jsp := root.Child("join")
			jsp.SetInt("fragment", int64(step.fragment))
			jsp.SetFloat("est_rows", step.out.Card)
			out = step.out
		}
		// GCov reports its cover's cost only; the cardinality is the last
		// join's (the same number p.est carries for a caller's cover).
		plan.EstimatedRows = out.Card
		root.Child("project").SetStr("cols", strings.Join(p.jucq.HeadNames, ","))

	case p.ranges != nil:
		// One "cq" node per range CQ; range reformulations are small, so no
		// elision is needed.
		u := root.Child("union")
		u.SetInt("cqs", int64(p.cqs))
		u.SetInt("range_atoms", int64(p.ranges.RangeAtoms()))
		u.SetInt("expansions", int64(p.ranges.Expansions()))
		// Against shards the union's co-partitioned members (two or more)
		// evaluate shard-locally in one scatter; the rest stay central.
		var scatter *trace.Span
		if n, co := e.Shards(), 0; n > 1 {
			for _, cq := range p.ranges.CQs {
				if exec.CoPartitionedCQ(cq) {
					co++
				}
			}
			if co >= 2 {
				scatter = u.Child("scatter")
				scatter.SetInt("n", int64(n))
				scatter.SetStr("op", "ucq")
			}
		}
		for _, cq := range p.ranges.CQs {
			parent := u
			if scatter != nil && exec.CoPartitionedCQ(cq) {
				parent = scatter
			}
			ce := p.model.RangeCQ(cq)
			parts := make([]string, len(cq.Atoms))
			for i, a := range cq.Atoms {
				parts[i] = query.FormatRangeAtom(a)
			}
			csp := parent.Child("cq")
			csp.SetStr("q", strings.Join(parts, ", "))
			csp.SetFloat("est_rows", ce.Card)
			csp.SetFloat("est_cost", ce.Cost)
		}

	case p.program != nil:
		// The Datalog engine evaluates bottom-up to fixpoint; the cost model
		// does not price it, so the plan is purely structural.
		root.Child("encode")
		root.Child("fixpoint")

	default:
		explainCQ(root, p.model, d, p.q, 1)
	}
	return plan
}

// joinStep is one fragment join of a JUCQ plan: the fragment joined in and
// the estimate of the running result after it.
type joinStep struct {
	fragment int
	out      cost.Estimate
}

// joinOrder mirrors cost.JoinFragments' greedy order over fragment
// estimates: start from fragment 0, then connected fragments first, smaller
// estimated cardinality breaking ties.
func joinOrder(frags []cost.Estimate) []joinStep {
	cur := frags[0]
	rest := make([]int, 0, len(frags)-1)
	for i := 1; i < len(frags); i++ {
		rest = append(rest, i)
	}
	steps := make([]joinStep, 0, len(rest))
	for len(rest) > 0 {
		best, bestConnected := -1, false
		for i, fi := range rest {
			connected := sharesEstVar(frags[fi], cur)
			switch {
			case best == -1,
				connected && !bestConnected,
				connected == bestConnected && frags[fi].Card < frags[rest[best]].Card:
				best, bestConnected = i, connected
			}
		}
		fi := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		cur = cost.Join(cur, frags[fi])
		steps = append(steps, joinStep{fragment: fi, out: cur})
	}
	return steps
}

// fragmentScatterOp summarizes how a fragment fans out against a
// sharded source, mirroring the executor: "ucq" when ≥2 member CQs are
// co-partitioned (the group evaluates shard-locally in one scatter, the
// rest on the parent path), "cq" when exactly one member scatters
// shard-locally on its own, "scan" when only unbound-subject scans
// scatter, "" when nothing scatters.
func fragmentScatterOp(u query.UCQ, shards int) string {
	if shards < 2 || len(u.CQs) == 0 {
		return ""
	}
	co, anyScan := 0, false
	for _, cq := range u.CQs {
		if exec.CoPartitionedCQ(cq) {
			co++
			continue
		}
		for _, a := range cq.Atoms {
			if a.Args()[0].IsVar() {
				anyScan = true
				break
			}
		}
	}
	switch {
	case co >= 2:
		return "ucq"
	case co == 1:
		return "cq"
	case anyScan:
		return "scan"
	}
	return ""
}

func sharesEstVar(a, b cost.Estimate) bool {
	for v := range a.V {
		if _, ok := b.V[v]; ok {
			return true
		}
	}
	return false
}

// explainCQ adds the cost model's simulated greedy operator plan for one
// CQ under parent: a "cq" node with one child per operator (scan, then
// inlj/hash joins) carrying the running estimated cardinality. Against a
// sharded source the tree shows the executor's scatter shape: a
// co-partitioned body nests its whole plan under one scatter node
// (evaluated shard-locally N ways), any other body scatters its
// unbound-subject scans individually.
//
//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func explainCQ(parent *trace.Span, m *cost.Model, d *dict.Dict, q query.CQ, shards int) {
	est, steps := m.CQPlan(q)
	csp := parent.Child("cq")
	csp.SetStr("q", query.FormatCQ(d, q))
	csp.SetFloat("est_rows", est.Card)
	csp.SetFloat("est_cost", est.Cost)
	opParent := csp
	if shards > 1 && exec.CoPartitionedCQ(q) {
		sc := csp.Child("scatter")
		sc.SetInt("n", int64(shards))
		sc.SetStr("op", "cq")
		opParent = sc
	}
	for _, st := range steps {
		name := st.Op
		if name == "hash" {
			// The executor names its materialized hash-join spans
			// "hashjoin"; keep EXPLAIN and EXPLAIN ANALYZE aligned.
			name = "hashjoin"
		}
		sp := opParent
		if sp == csp && shards > 1 && name == "scan" && q.Atoms[st.AtomIndex].S.IsVar() {
			sc := csp.Child("scatter")
			sc.SetInt("n", int64(shards))
			sc.SetStr("op", "scan")
			sp = sc
		}
		op := sp.Child(name)
		op.SetStr("atom", query.FormatAtom(d, q.Atoms[st.AtomIndex]))
		op.SetFloat("est_rows", st.Out.Card)
	}
}
