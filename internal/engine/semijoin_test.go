package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

// semijoinTemplates add to the hostile templates the shapes a fragment join
// must handle besides a probe into a fragment holding the shared variables in
// place: a class variable shared across atoms, which the reformulation binds
// to constants in some members (a constant in a shared slot), and atoms that
// share nothing (a cross step).
var semijoinTemplates = []shapeTemplate{
	{name: "shared-class", text: `q(x, y) :- x rdf:type c, y ex:likes c, y ex:likes %[1]s`},
	{name: "shared-class-range", text: `q(x) :- x rdf:type c, c ex:likes y, x ex:p2 %[1]s`},
	{name: "disconnected", text: `q(x, y) :- x rdf:type ex:A, y ex:likes %[1]s`},
}

// TestSemijoinIsTheJoin: a JUCQ whose connected fragments are probed by
// semijoins answers what the same JUCQ answers with every fragment
// materialized (ForceHashJoins), and both answer what Sat does. The inputs
// are LUBM Q1–Q14, Example 1 and the hostile.ttl templates over a spread of
// constants, with every cover ExhaustiveCov explores, each fragment filled
// once by its merged UCQ and once by its range reformulation (members with
// expansions), at 1 and 4 shards. The sweep must probe fragments whose
// members hold a constant in a shared slot and range members with an
// expansion, and take a cross step. It runs with relations cut into chunks
// of one row, of four and of the default size.
func TestSemijoinIsTheJoin(t *testing.T) { atChunkSizes(t, semijoinIsTheJoin) }

func semijoinIsTheJoin(t *testing.T) {
	type workload struct {
		name  string
		e     *Engine
		names []string
		qs    []query.CQ
	}
	lubmEngine, names, qs := lubmWorkload(t)
	small := hostileGraph(t)
	hostile := workload{name: "hostile", e: New(small)}
	for _, tpl := range append(append([]shapeTemplate(nil), shapeTemplatesSmall...), semijoinTemplates...) {
		for _, c := range spread(iriPool(small), 4) {
			text := fmt.Sprintf(tpl.text, c, c)
			q, err := query.ParseRuleWithPrefixes(small.Dict(), map[string]string{"ex": "http://example.org/"}, text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			hostile.names, hostile.qs = append(hostile.names, tpl.name+" "+c), append(hostile.qs, q)
		}
	}
	var probes, constSlots, expansions, crosses int
	for _, w := range []workload{{"lubm", lubmEngine, names, qs}, hostile} {
		for _, shards := range []int{1, 4} {
			w.e.EnableSharding(shards)
			m, bound := w.e.CostModel(), w.e.fragmentBound()
			for i, q := range w.qs {
				name := fmt.Sprintf("%s/shards=%d/%s", w.name, shards, w.names[i])
				sat, err := w.e.AnswerContext(context.Background(), q, Sat)
				if err != nil {
					t.Fatalf("%s: sat: %v", name, err)
				}
				search, err := core.ExhaustiveCov(w.e.Reformulator(), m, q, core.GCovOptions{MaxFragmentCQs: bound})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Per form, each fragment's estimate and range members, and its
				// materialized result, computed once for all covers.
				ests, ranges := map[string]cost.Estimate{}, map[string]query.RangeUCQ{}
				memos := map[string]fragmentMemo{"ucq": {}, "range": {}}
				for _, x := range search.Explored {
					if x.Pruned {
						continue
					}
					j, err := w.e.Reformulator().ReformulateJUCQ(q, x.Cover, bound)
					if err != nil {
						t.Fatalf("%s %s: %v", name, x.Cover, err)
					}
					for _, form := range []string{"ucq", "range"} {
						plans := make([]exec.FragmentPlan, len(j.Fragments))
						for k, f := range j.Fragments {
							key := form + fmt.Sprint(f.CQ)
							if form == "range" {
								ru, ok := ranges[key]
								if !ok {
									ru = w.e.RangeReformulator().Reformulate(f.CQ)
									ranges[key] = ru
								}
								j.Fragments[k].Members = ru.CQs
							}
							est, ok := ests[key]
							if !ok {
								est = m.UCQ(f.UCQ)
								if form == "range" {
									est = m.RangeUCQ(ranges[key])
								}
								ests[key] = est
							}
							plans[k].Est = est
						}
						what := fmt.Sprintf("%s %s (%s)", name, x.Cover, form)
						probed := exec.New(w.e.Source(), w.e.Stats())
						probed.Fragments = plans
						var root *trace.Span
						if shards == 1 { // the steps taken are counted on one shard
							root = trace.New(0).StartSpan("eval")
							probed.Span = root
						}
						got := evalJUCQ(t, probed, j, what)
						root.End()
						forced := exec.New(w.e.Source(), w.e.Stats())
						forced.Fragments, forced.ForceHashJoins, forced.FragCache = plans, true, memos[form]
						if want := evalJUCQ(t, forced, j, what); !got.Equal(want) || !got.Equal(sat.Rows) {
							t.Fatalf("%s: probed %d rows, materialized %d, sat %d", what, got.Len(), want.Len(), sat.Rows.Len())
						}
						if root == nil {
							continue
						}
						for _, st := range fragmentSteps(trace.ToJSON(root)) {
							switch st.op {
							case cost.OpCross:
								crosses++
							case cost.OpSemijoin:
								probes++
								on := strings.Split(st.node.Attrs["on"].(string), ",")
								f := j.Fragments[st.idx]
								for _, mem := range f.Members {
									if mem.Expansions() > 0 {
										expansions++
									}
									for k, h := range mem.Head {
										if (!h.IsVar() || h.Var != f.UCQ.HeadNames[k]) && slices.Contains(on, f.UCQ.HeadNames[k]) {
											constSlots++
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d semijoins, %d members with a constant or another variable in a shared slot, %d seeded members with an expansion, %d cross steps", probes, constSlots, expansions, crosses)
	if probes == 0 || constSlots == 0 || expansions == 0 || crosses == 0 {
		t.Fatal("the sweep must probe members with a constant in a shared slot and range members with an expansion, and cross")
	}
}

func evalJUCQ(t *testing.T, ev *exec.Evaluator, j query.JUCQ, what string) *exec.Relation {
	t.Helper()
	rows, err := ev.EvalJUCQContext(context.Background(), j)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return rows
}

// fragmentMemo is a FragCache keeping every fragment result it evaluates, by
// the fragment query as written: the materialized side of the sweep computes
// each fragment of a query once, whatever the covers it occurs in.
type fragmentMemo map[string]*exec.Relation

func (m fragmentMemo) GetOrEval(q query.CQ, _ string, _ func() float64, _ func() error, eval func() (*exec.Relation, error)) (*exec.Relation, exec.CacheOutcome, error) {
	key := fmt.Sprint(q)
	if r, ok := m[key]; ok {
		return r, exec.CacheOutcome{Hit: true}, nil
	}
	r, err := eval()
	if err == nil {
		m[key] = r
	}
	return r, exec.CacheOutcome{}, err
}

// A fragment's member is seeded only when its head holds every shared
// variable in its own slot. Fragment B of this JUCQ has a member in place,
// one with its head variables swapped, one with a repeated variable and one
// with a constant in a slot whose name its body uses for another value; a
// member seeded through a slot it does not hold in place loses the rows
// marked below.
func TestSemijoinSeedsOnlySlotsHeldInPlace(t *testing.T) {
	g, err := graph.ParseString(`@prefix ex: <http://example.org/> .
ex:e2 ex:a ex:e1 .
ex:e3 ex:a ex:e3 .
ex:e4 ex:a ex:e5 .
ex:e6 ex:a ex:e7 .
ex:e6 ex:p ex:e7 .
ex:e2 ex:q ex:e1 .
ex:e1 ex:q ex:e2 .
ex:e3 ex:r ex:e3 .
ex:e4 ex:s ex:e9 .
ex:e9 ex:t ex:e8 .
`)
	if err != nil {
		t.Fatal(err)
	}
	iri := func(s string) query.Arg {
		id, ok := g.Dict().LookupIRI("http://example.org/" + s)
		if !ok {
			t.Fatalf("no %s", s)
		}
		return query.Constant(id)
	}
	v := query.Variable
	xy := []string{"x", "y"}
	a := query.UCQ{HeadNames: xy, CQs: []query.CQ{{Head: []query.Arg{v("x"), v("y")}, Atoms: []query.Atom{{S: v("x"), P: iri("a"), O: v("y")}}}}}
	// Each member of B joins one row of A; the comments say what a member
	// seeded through a slot it does not hold in place loses.
	b := query.UCQ{HeadNames: xy, CQs: []query.CQ{
		{Head: []query.Arg{v("x"), v("y")}, Atoms: []query.Atom{{S: v("x"), P: iri("p"), O: v("y")}}},
		// (e2, e1), from body y = e2 and x = e1: seeded by body name, it
		// probes e1 q e2 and finds (e1, e2) instead.
		{Head: []query.Arg{v("y"), v("x")}, Atoms: []query.Atom{{S: v("y"), P: iri("q"), O: v("x")}}},
		{Head: []query.Arg{v("x"), v("x")}, Atoms: []query.Atom{{S: v("x"), P: iri("r"), O: v("x")}}},
		// (e4, e5), from body y = e9, which no seed row holds.
		{Head: []query.Arg{v("x"), iri("e5")}, Atoms: []query.Atom{{S: v("x"), P: iri("s"), O: v("y")}, {S: v("y"), P: iri("t"), O: v("w")}}},
	}}
	j := query.JUCQ{HeadNames: xy, Fragments: []query.Fragment{
		{AtomIndexes: []int{0}, UCQ: a},
		{AtomIndexes: []int{1}, UCQ: b},
	}}
	plans := []exec.FragmentPlan{{Est: cost.Estimate{Card: 4}}, {Est: cost.Estimate{Card: 1000}}}
	for _, shards := range []int{1, 4} {
		e := New(g)
		e.EnableSharding(shards)
		probed, forced := exec.New(e.Source(), e.Stats()), exec.New(e.Source(), e.Stats())
		root := trace.New(0).StartSpan("eval")
		probed.Fragments, probed.Span = plans, root
		forced.Fragments, forced.ForceHashJoins = plans, true
		got := evalJUCQ(t, probed, j, "probed")
		root.End()
		if steps := fragmentSteps(trace.ToJSON(root)); len(steps) != 2 || steps[1].op != cost.OpSemijoin {
			t.Fatalf("shards=%d: fragment B was not probed: %+v", shards, steps)
		}
		want := evalJUCQ(t, forced, j, "materialized")
		if want.Len() != 4 || !got.Equal(want) {
			t.Fatalf("shards=%d: probed %d rows, materialized %d, want the 4 of A", shards, got.Len(), want.Len())
		}
	}
}

// With the view cache on, a fragment is a view, a whole result, so nothing
// probes one: where the plan would probe, EXPLAIN and the executor both hash.
func TestViewCachedFragmentsAreNotProbed(t *testing.T) {
	e, names, qs := lubmWorkload(t)
	semijoins := func(n *trace.SpanJSON) int {
		count := 0
		walk(n, func(n *trace.SpanJSON) {
			if n.Name == cost.OpSemijoin {
				count++
			}
		})
		return count
	}
	planned := 0
	for _, q := range qs {
		p, err := e.Plan(q, RefGCov)
		if err != nil {
			t.Fatal(err)
		}
		planned += semijoins(p.Tree())
	}
	if planned == 0 {
		t.Fatal("no ref-gcov plan probes a fragment")
	}
	e.EnableViewCache(viewcache.Config{MinCost: -1})
	for i, q := range qs {
		p, err := e.Plan(q, RefGCov)
		if err != nil {
			t.Fatal(err)
		}
		e.Tracer = trace.New(0)
		if _, err := e.AnswerContext(context.Background(), q, RefGCov); err != nil {
			t.Fatal(err)
		}
		if n, m := semijoins(p.Tree()), semijoins(trace.ToJSON(e.Tracer.Root())); n+m > 0 {
			t.Errorf("%s: with the view cache on, EXPLAIN shows %d semijoins, the executor ran %d", names[i], n, m)
		}
		e.Tracer = nil
	}
}
