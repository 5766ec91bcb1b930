package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/trace"
)

// lubmWorkload is the engine of the EXPLAIN golden tests with the queries the
// plan-rule tests run: LUBM Q1–Q14 and the paper's Example 1.
func lubmWorkload(t *testing.T) (*Engine, []string, []query.CQ) {
	t.Helper()
	e, ex1 := exampleOneEngine(t)
	parsed, err := lubm.ParseQueries(e.g.Dict(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var qs []query.CQ
	for _, p := range parsed {
		names, qs = append(names, p.Name), append(qs, p.CQ)
	}
	return e, append(names, "Ex1"), append(qs, ex1)
}

// fmtEst prints a number of the cost model to twelve significant digits.
// Not to the last bit: the join-size formula divides by its shared
// variables' distinct counts in map order, so an estimate over a join on two
// variables varies in its last bits from one call to the next.
func fmtEst(f float64) string { return strconv.FormatFloat(f, 'g', 12, 64) }

func formatEstimate(e cost.Estimate) string {
	g := fmtEst
	vars := make([]string, 0, len(e.V))
	for v, n := range e.V {
		vars = append(vars, v+"="+g(n))
	}
	sort.Strings(vars)
	return fmt.Sprintf("cost=%s card=%s V{%s}", g(e.Cost), g(e.Card), strings.Join(vars, " "))
}

// TestEstimatesUnchanged pins what the plain strategies compute: every
// estimate of Model.CQ (explicit and saturated statistics), UCQ, JUCQ and
// JoinFragments on LUBM Q1–Q14 and Example 1, and the cover GCov picks from
// them. estimates.golden was recorded before the join-order
// rule moved behind cost.Pick and the three simulations became one.
func TestEstimatesUnchanged(t *testing.T) {
	e, names, qs := lubmWorkload(t)
	ref, m, sat := e.Reformulator(), e.CostModel(), e.SatCostModel()
	var sb strings.Builder
	for i, q := range qs {
		fmt.Fprintf(&sb, "%s CQ %s\n", names[i], formatEstimate(m.CQ(q)))
		fmt.Fprintf(&sb, "%s CQ(sat) %s\n", names[i], formatEstimate(sat.CQ(q)))
		if names[i] != "Ex1" { // Example 1's union has 189K members
			fmt.Fprintf(&sb, "%s UCQ %s\n", names[i], formatEstimate(m.UCQ(ref.ReformulateCQ(q))))
		}
		res, err := core.GCov(ref, m, q, core.GCovOptions{MaxFragmentCQs: e.fragmentBound()})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s GCov %s cost=%s explored=%d\n", names[i], res.Cover, fmtEst(res.Cost), len(res.Explored))
		for _, cover := range []query.Cover{query.SingletonCover(len(q.Atoms)), res.Cover} {
			j, err := ref.ReformulateJUCQ(q, cover, 0)
			if err != nil {
				t.Fatal(err)
			}
			frags := make([]cost.Estimate, len(j.Fragments))
			for k, f := range j.Fragments {
				frags[k] = m.UCQ(f.UCQ)
			}
			fmt.Fprintf(&sb, "%s JUCQ %s %s\n", names[i], cover, formatEstimate(m.JUCQ(j)))
			fmt.Fprintf(&sb, "%s JoinFragments %s %s\n", names[i], cover, formatEstimate(m.JoinFragments(frags, nil)))
		}
	}
	checkGolden(t, "estimates.golden", sb.String())
}

// planOp is one operator of a conjunctive plan: its name, for the operators
// that read an atom the atom, and for a traced join the actual sizes of the
// running result it joined into and of the relation or scan it joined.
type planOp struct {
	op, atom    string
	left, right float64
}

func (o planOp) String() string { return o.op + " " + o.atom }

// cqOps lists, per "cq" node of a plan or trace tree, the node's plan
// operators in order.
func cqOps(n *trace.SpanJSON) [][]planOp {
	var out [][]planOp
	if n.Name == "cq" {
		var ops []planOp
		for _, c := range n.Children {
			switch c.Name {
			case cost.OpScan, cost.OpINLJ, cost.OpHashJoin, cost.OpCross:
				atom, _ := c.Attrs["atom"].(string)
				left, _ := c.Attrs["left_rows"].(int64)
				right, _ := c.Attrs["right_rows"].(int64)
				ops = append(ops, planOp{c.Name, atom, float64(left), float64(right)})
			}
		}
		return append(out, ops)
	}
	for _, c := range n.Children {
		out = append(out, cqOps(c)...)
	}
	return out
}

// opStrings renders the operators; atomsOnly keeps the atoms alone.
func opStrings(ops []planOp, atomsOnly bool) []string {
	var out []string
	for _, o := range ops {
		switch {
		case !atomsOnly:
			out = append(out, o.String())
		case o.atom != "":
			out = append(out, o.atom)
		}
	}
	return out
}

// TestPlanOrderIsTraceOrder: the plan EXPLAIN prints is the plan the
// executor runs. For LUBM Q1–Q14 and Example 1 under sat, and under
// ref-range wherever the reformulation is a single range CQ, the atoms of
// Plan().Tree() come in the order of the traced answer's — always: both
// sides order by cost.Pick over the same cardinalities — and the operators
// are the same too whenever the estimated and the actual size of the
// running result fall on the same side of cost.PreferINLJ at every join, and
// of the streaming rule at every hash join (streamsInto). One more query
// joins a scan larger than the running result by hashing, so the executor
// streams it: EXPLAIN must show that step as the one hashjoin node the
// executor records, not as a scan and a join.
func TestPlanOrderIsTraceOrder(t *testing.T) {
	e, names, qs := lubmWorkload(t)
	stream, err := query.ParseRuleWithPrefixes(e.g.Dict(), map[string]string{"ub": "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"},
		`q(x, y) :- x ub:memberOf z, x ub:takesCourse y`)
	if err != nil {
		t.Fatal(err)
	}
	names, qs = append(names, "Stream"), append(qs, stream)
	compared, streamed := 0, 0
	for i, q := range qs {
		for _, s := range []Strategy{Sat, RefRange} {
			name := names[i] + "/" + string(s)
			// Both strategies plan the query without its implied atoms.
			rq, _ := e.Reformulator().Reduce(q)
			model, member := e.SatCostModel(), rq.Lift()
			if s == RefRange {
				ru := e.RangeReformulator().Reformulate(rq)
				if len(ru.CQs) != 1 {
					continue
				}
				model, member = e.CostModel(), ru.CQs[0]
			}
			plan, err := e.Plan(q, s)
			if err != nil {
				t.Fatalf("%s: plan: %v", name, err)
			}
			e.Tracer = trace.New(0)
			if _, err := e.AnswerContext(context.Background(), q, s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			planned, traced := cqOps(plan.Tree()), cqOps(trace.ToJSON(e.Tracer.Root()))
			e.Tracer = nil
			if len(planned) != 1 || len(traced) != 1 {
				t.Fatalf("%s: %d planned and %d traced cq nodes, want one each", name, len(planned), len(traced))
			}
			if got, want := opStrings(planned[0], true), opStrings(traced[0], true); !slices.Equal(got, want) {
				t.Fatalf("%s: EXPLAIN orders the atoms\n  %q\nthe executor\n  %q", name, got, want)
			}
			if !sameSide(model, member, traced[0]) {
				continue
			}
			compared++
			if got, want := opStrings(planned[0], false), opStrings(traced[0], false); !slices.Equal(got, want) {
				t.Errorf("%s: EXPLAIN plans\n  %q\nthe executor ran\n  %q", name, got, want)
			}
			for _, o := range traced[0] {
				if o.op == cost.OpHashJoin && o.atom != "" {
					streamed++
				}
			}
		}
	}
	if compared < len(qs) || streamed == 0 {
		t.Errorf("operators compared on %d plans, of %d queries under two strategies, %d streamed hash joins among them; want every query and a streamed join", compared, len(qs), streamed)
	}

	// Under ref-gcov the fragments join in the plan's order: EXPLAIN and the
	// executor start from the same fragment and take the others in the same
	// order, and a step's operator is the same whenever the estimated and the
	// actual size of the running result fall on the same side of
	// cost.PreferINLJ. EXPLAIN shows every merged member of every fragment, in
	// the order the executor evaluates them. A member of a materialized
	// fragment runs its atoms in EXPLAIN's order; the union's memo may serve a
	// scan or a join prefix another member computed, so a traced member's
	// operators are its plan's with those left out — all of them where the
	// memo served none. A semijoin's members start from its seed, not from
	// their plans' first scan.
	whole, steps, probes := 0, 0, 0
	for i, q := range qs {
		plan, err := e.Plan(q, RefGCov)
		if err != nil {
			t.Fatalf("%s: plan: %v", names[i], err)
		}
		e.Tracer = trace.New(0)
		if _, err := e.AnswerContext(context.Background(), q, RefGCov); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		planned, traced := fragmentSteps(plan.Tree()), fragmentSteps(trace.ToJSON(e.Tracer.Root()).Find("eval"))
		e.Tracer = nil
		if len(planned) != len(traced) {
			t.Fatalf("%s: EXPLAIN joins %d fragments, the executor %d", names[i], len(planned), len(traced))
		}
		for k, ps := range planned {
			ts := traced[k]
			if ps.idx != ts.idx {
				t.Fatalf("%s step %d: EXPLAIN takes fragment %d, the executor %d", names[i], k, ps.idx, ts.idx)
			}
			if ts.op == cost.OpSemijoin {
				probes++
			}
			if k > 0 && cost.PreferINLJ(planned[k-1].out, ps.rows) == cost.PreferINLJ(ts.left, ps.rows) {
				steps++
				if ps.op != ts.op {
					t.Errorf("%s step %d (fragment %d): EXPLAIN plans %s, the executor ran %s", names[i], k, ps.idx, ps.op, ts.op)
				}
			}
			pm, tm := cqOps(ps.frag), cqOps(ts.frag)
			if len(pm) != len(tm) {
				t.Fatalf("%s fragment %d: EXPLAIN shows %d members, the executor ran %d", names[i], ps.idx, len(pm), len(tm))
			}
			if ts.op == cost.OpSemijoin {
				continue
			}
			for m := range pm {
				got, want := opStrings(tm[m], false), opStrings(pm[m], false)
				if len(got) == len(want) {
					whole++
				}
				for len(got) > 0 && len(want) > 0 {
					if got[0] == want[0] {
						got = got[1:]
					}
					want = want[1:]
				}
				if len(got) > 0 {
					t.Errorf("%s fragment %d member %d: EXPLAIN plans\n  %q\nthe executor ran\n  %q", names[i], ps.idx, m, opStrings(pm[m], false), opStrings(tm[m], false))
				}
			}
		}
	}
	if whole == 0 || steps == 0 || probes == 0 {
		t.Errorf("ref-gcov: %d members ran their whole plan, %d fragment steps compared, %d probed; want each > 0", whole, steps, probes)
	}
}

// fragmentStep is one step of a JUCQ's fragment join in a plan or trace
// tree: the start fragment (op "") or a join, its node and its fragment's,
// the fragment's index and estimated rows, and the running result's actual
// size before (traced joins) and estimated size after the step.
type fragmentStep struct {
	op              string
	node, frag      *trace.SpanJSON
	idx             int64
	rows, left, out float64
}

// fragmentSteps lists the fragment steps among n's children, in order.
func fragmentSteps(n *trace.SpanJSON) []fragmentStep {
	var out []fragmentStep
	num := func(n *trace.SpanJSON, key string) float64 {
		switch v := n.Attrs[key].(type) {
		case int64:
			return float64(v)
		case float64:
			return v
		}
		return 0
	}
	for _, c := range n.Children {
		st := fragmentStep{op: c.Name, node: c, frag: c, out: num(c, "est_rows")}
		switch c.Name {
		case "fragment":
			st.op = ""
		case cost.OpSemijoin, cost.OpHashJoin, cost.OpCross:
			st.frag, st.left = c.Find("fragment"), num(c, "left_rows")
		default:
			continue
		}
		st.idx, st.rows = st.frag.Attrs["idx"].(int64), num(st.frag, "est_rows")
		out = append(out, st)
	}
	return out
}

// sameSide reports whether, at every join of the member's plan, the
// estimated sizes (the model's) and the actual ones (the traced join's
// left_rows and right_rows) lead cost.PreferINLJ, and at a hash join the
// streaming rule, to the same decision. The joins of plan and trace pair up
// in order: their atoms are in the same order.
func sameSide(m *cost.Model, member query.RangeCQ, traced []planOp) bool {
	var actual []planOp
	for _, o := range traced {
		if o.op != cost.OpScan {
			actual = append(actual, o)
		}
	}
	same, est, join := true, 0.0, 0
	m.RangeCQ(member, func(st cost.PlanStep) {
		if st.Op != cost.OpScan {
			if st.Op != cost.OpCross {
				act := actual[join]
				same = same && cost.PreferINLJ(est, st.Atom.Card) == cost.PreferINLJ(act.left, st.Atom.Card)
				a := member.Atoms[st.Index]
				same = same && (st.Op != cost.OpHashJoin || streamsInto(a, st.Atom.Card, est) == streamsInto(a, act.right, act.left))
			}
			join++
		}
		est = st.Out.Card
	})
	return same
}
