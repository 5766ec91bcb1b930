package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/trace"
)

// fragmentEstimates lists the est_rows of the fragment nodes and fragment
// joins under n, in plan order: the start fragment, then per join the join's
// and its fragment's ("-" where a node carries none).
func fragmentEstimates(n *trace.SpanJSON) []string {
	est := func(n *trace.SpanJSON) string {
		if v, ok := n.Attrs["est_rows"]; ok {
			return fmt.Sprint(v)
		}
		return "-"
	}
	var out []string
	for _, st := range fragmentSteps(n) {
		if st.op != "" {
			out = append(out, "join:"+est(st.node))
		}
		out = append(out, fmt.Sprint(st.idx, ":", est(st.frag)))
	}
	return out
}

// On a plan-cache hit the executor's fragment and fragment-join spans carry
// the estimates the plan was priced with — with no cost model on the
// evaluator — and they are EXPLAIN's, node for node; so are the traced
// answer's. The hits bind departments other than the one the shape was
// planned with, of the same selectivity class but not all of the same
// estimate.
func TestCachedPlanCarriesFragmentEstimates(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	prefixes := map[string]string{"ub": lubm.NS}
	var departments []string
	for _, c := range iriPool(g) {
		if strings.HasPrefix(c, "<http://www.Department") {
			departments = append(departments, c)
		}
	}
	for _, s := range []Strategy{RefSCQ, RefGCov} {
		hits, repriced := 0, false
		for _, c := range departments {
			q, err := query.ParseRuleWithPrefixes(g.Dict(), prefixes, fmt.Sprintf(`q(x) :- x rdf:type ub:Person, x ub:memberOf %s`, c))
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.prepare(q, s, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !p.cachedPlan {
				continue
			}
			hits++
			// A request's fragment keeps the shape's UCQ; priced with the
			// request's constants it is priced as the bound one.
			for i, f := range p.jucq.Fragments {
				repriced = repriced || p.model.Bind(p.params).UCQ(f.UCQ).Card != p.fragEsts[i].Card
			}
			ev := exec.New(p.src, p.stats)
			root := trace.New(0).StartSpan("eval")
			ev.Span, ev.Fragments = root, p.fragmentPlans(false)
			if _, err := ev.EvalJUCQContext(context.Background(), *p.jucq); err != nil {
				t.Fatal(err)
			}
			root.End()
			plan, err := e.Plan(q, s)
			if err != nil {
				t.Fatal(err)
			}
			got, want := fragmentEstimates(trace.ToJSON(root)), fragmentEstimates(plan.Tree())
			if len(want) < len(p.jucq.Fragments) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %s: the executor's estimates %v, EXPLAIN's %v", s, c, got, want)
			}
			traced := *e
			traced.Tracer = trace.New(0)
			if _, err := traced.AnswerContext(context.Background(), q, s); err != nil {
				t.Fatal(err)
			}
			if got := fragmentEstimates(trace.ToJSON(traced.Tracer.Root()).Find("eval")); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %s: the traced answer's estimates %v, EXPLAIN's %v", s, c, got, want)
			}
		}
		if hits == 0 || !repriced {
			t.Fatalf("%s: %d hits, none of an estimate of its own", s, hits)
		}
	}
}
