package engine

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/trace"
)

// Plan is the EXPLAIN (without ANALYZE) surface: how a strategy would
// answer a query, derived entirely from the reformulator and the cost
// model without touching the data. Its tree mirrors the span tree an
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
	switch s {
	case Sat:
		return e.planSat(q)
	case RefUCQ:
		return e.planUCQ(q, e.Reformulator(), RefUCQ)
	case RefIncomplete:
		return e.planUCQ(q, e.IncompleteReformulator(), RefIncomplete)
	case RefSCQ:
		return e.planCover(q, query.SingletonCover(len(q.Atoms)), RefSCQ)
	case RefGCov:
		return e.planGCov(q)
	case RefRange:
		return e.planRange(q)
	case Dat:
		return e.planDat(q)
	case RefJUCQ:
		return nil, fmt.Errorf("engine: strategy %s needs a cover; use PlanWithCover", s)
	default:
		return nil, fmt.Errorf("engine: unknown strategy %q", s)
	}
}

// PlanWithCover explains the JUCQ plan induced by a caller-chosen cover.
func (e *Engine) PlanWithCover(q query.CQ, cover query.Cover) (*Plan, error) {
	if err := cover.Validate(len(q.Atoms)); err != nil {
		return nil, err
	}
	return e.planCover(q, cover, RefJUCQ)
}

// newPlan starts a plan tree rooted at a "plan" span.
func (e *Engine) newPlan(q query.CQ, s Strategy) (*Plan, *trace.Span) {
	tr := trace.New(0)
	root := tr.StartSpan("plan")
	root.SetStr("strategy", string(s))
	root.SetStr("query", query.FormatCQ(e.g.Dict(), q))
	return &Plan{Strategy: s, root: root}, root
}

//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) planSat(q query.CQ) (*Plan, error) {
	p, root := e.newPlan(q, Sat)
	// The saturated store stays unsharded, so Sat plans carry no scatter.
	est := explainCQ(root, e.SatCostModel(), e.g.Dict(), q, 1)
	p.ReformulationCQs = 1
	p.EstimatedCost, p.EstimatedRows = est.Cost, est.Card
	return p, nil
}

//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) planUCQ(q query.CQ, r *core.Reformulator, s Strategy) (*Plan, error) {
	p, root := e.newPlan(q, s)
	count, _ := r.CombinationCount(q)
	p.ReformulationCQs = count
	u := root.Child("union")
	u.SetInt("cqs", int64(count))
	m := e.CostModel()
	shown := 0
	r.EnumerateCQ(q, func(cq query.CQ) bool {
		if shown >= explainMaxUCQPlans {
			return false
		}
		explainCQ(u, m, e.g.Dict(), cq, e.Shards())
		shown++
		return true
	})
	if count > shown {
		el := u.Child("elided")
		el.SetInt("cqs", int64(count-shown))
	}
	return p, nil
}

//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) planCover(q query.CQ, cover query.Cover, s Strategy) (*Plan, error) {
	bound := e.fragmentBound()
	if s == RefSCQ {
		bound = 0
	}
	j, err := e.Reformulator().ReformulateJUCQ(q, cover, bound)
	if err != nil {
		return nil, err
	}
	p, root := e.newPlan(q, s)
	root.SetStr("cover", cover.String())
	e.explainJUCQ(root, p, j)
	p.Cover = cover
	return p, nil
}

//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) planGCov(q query.CQ) (*Plan, error) {
	key := query.FormatCQ(e.g.Dict(), q)
	entry, cached := e.d.plans.get(key)
	e.observePlanCache(cached)
	if !cached {
		res, err := core.GCov(e.Reformulator(), e.CostModel(), q, core.GCovOptions{MaxFragmentCQs: e.fragmentBound()})
		if err != nil {
			return nil, err
		}
		entry = newPlanEntry(key, res)
		evicted := e.d.plans.put(entry)
		e.Metrics.Counter("engine.plancache.evictions").Add(int64(evicted))
	}
	p, root := e.newPlan(q, RefGCov)
	root.SetStr("cover", entry.cover.String())
	root.SetBool("cached", cached)
	root.SetInt("explored", int64(len(entry.explored)))
	e.explainJUCQ(root, p, entry.jucq)
	p.Cover = entry.cover
	p.CachedPlan = cached
	return p, nil
}

//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) planDat(q query.CQ) (*Plan, error) {
	p, root := e.newPlan(q, Dat)
	// The Datalog engine evaluates bottom-up to fixpoint; the cost model
	// does not price it, so the plan is purely structural.
	root.Child("encode")
	root.Child("fixpoint")
	p.ReformulationCQs = 1
	return p, nil
}

// explainJUCQ renders a fragment-join plan: one "fragment" node per cover
// block, then "join" nodes in the cost model's greedy order with the
// running estimated cardinality — the same order EXPLAIN ANALYZE traces
// show when the estimates track reality.
//
//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) explainJUCQ(root *trace.Span, p *Plan, j query.JUCQ) {
	m := e.CostModel()
	d := e.g.Dict()
	shards := e.Shards()
	frags := make([]cost.Estimate, len(j.Fragments))
	n := 0
	for i, f := range j.Fragments {
		frags[i] = m.UCQ(f.UCQ)
		n += len(f.UCQ.CQs)
		fsp := root.Child("fragment")
		fsp.SetInt("idx", int64(i))
		fsp.SetStr("atoms", query.Cover{f.AtomIndexes}.String())
		fsp.SetStr("q", query.FormatCQ(d, f.CQ))
		fsp.SetInt("cqs", int64(len(f.UCQ.CQs)))
		fsp.SetFloat("est_rows", frags[i].Card)
		fsp.SetFloat("est_cost", frags[i].Cost)
		if op := fragmentScatterOp(f.UCQ, shards); op != "" {
			sc := fsp.Child("scatter")
			sc.SetInt("n", int64(shards))
			sc.SetStr("op", op)
		}
	}
	p.ReformulationCQs = n
	// Mirror cost.JoinFragments' greedy order: connected fragments first,
	// smaller estimated cardinality breaking ties.
	cur := frags[0]
	rest := make([]int, 0, len(frags)-1)
	for i := 1; i < len(frags); i++ {
		rest = append(rest, i)
	}
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
		jsp := root.Child("join")
		jsp.SetInt("fragment", int64(fi))
		jsp.SetFloat("est_rows", cur.Card)
	}
	est := m.JoinFragments(frags)
	root.SetFloat("est_cost", est.Cost)
	p.EstimatedCost, p.EstimatedRows = est.Cost, est.Card
	prj := root.Child("project")
	prj.SetStr("cols", strings.Join(j.HeadNames, ","))
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
func explainCQ(parent *trace.Span, m *cost.Model, d *dict.Dict, q query.CQ, shards int) cost.Estimate {
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
	return est
}
