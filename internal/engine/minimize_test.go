package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/trace"
)

// countSpans counts the spans named name in n's subtree.
func countSpans(n *trace.SpanJSON, name string) int {
	c := 0
	walk(n, func(s *trace.SpanJSON) {
		if s.Name == name {
			c++
		}
	})
	return c
}

// The reformulation of LUBM Q5 and Q13 derives their rdf:type atom through
// the domain of the other atom's property, so every member of their union is
// contained in that property's atom alone. On LUBM(1), where GCov keeps each
// query in one fragment, the cached ref-gcov plan of each shape runs one
// member, a scan of the property's subproperty range, and probes nothing.
func TestContainedMembersAreNotRun(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	object := func(prop string) string {
		id, _ := g.Dict().Lookup(lubm.Prop(prop))
		for _, tr := range g.AllTriples() {
			if tr.P == id {
				return g.Dict().Decode(tr.O).String()
			}
		}
		t.Fatalf("no %s triple", prop)
		return ""
	}
	for _, tc := range []struct{ name, text string }{
		{"Q5", `q(x) :- x rdf:type ub:Person, x ub:memberOf ` + object("memberOf")},
		{"Q13", `q(x) :- x rdf:type ub:Person, x ub:degreeFrom ` + object("doctoralDegreeFrom")},
	} {
		q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ub": lubm.NS}, tc.text)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			p, err := e.Plan(q, RefGCov)
			if err != nil {
				t.Fatal(err)
			}
			if p.CachedPlan != (i == 1) {
				t.Fatalf("%s: plan %d cached %v", tc.name, i, p.CachedPlan)
			}
			tree := p.Tree()
			if cqs, inljs := countSpans(tree, "cq"), countSpans(tree, "inlj"); cqs != 1 || inljs != 0 {
				t.Fatalf("%s: %d members run and %d probes, want one scan:\n%s", tc.name, cqs, inljs, p.Explain())
			}
			if p.ReformulationCQs < 2 {
				t.Fatalf("%s: the reformulation has %d CQs: nothing was minimized", tc.name, p.ReformulationCQs)
			}
		}
	}
}

// Planning minimizes every fragment's union, a search exponential in a
// member's variables at worst. Its step budget keeps a plan miss on a rigid
// query quick: q(y0) :- yi advisor yj for every ordered pair of ten
// variables is its own core, so unbounded, each of its 90 atoms' checks
// would exhaust some 9^9 partial maps. ref-jucq takes it as one block;
// ref-gcov plans a five-variable clique, as GCov's own search grows steeply
// with the atoms.
func TestRigidQueryPlansQuickly(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	clique := func(n int) query.CQ {
		var atoms []string
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					atoms = append(atoms, fmt.Sprintf("y%d ub:advisor y%d", i, j))
				}
			}
		}
		q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ub": lubm.NS}, "q(y0) :- "+strings.Join(atoms, ", "))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, tc := range []struct {
		s Strategy
		n int
	}{{RefJUCQ, 10}, {RefGCov, 5}} {
		q := clique(tc.n)
		start := time.Now()
		var p *Plan
		if tc.s == RefJUCQ {
			p, err = e.PlanWithCover(q, query.OneBlockCover(len(q.Atoms)))
		} else {
			p, err = e.Plan(q, tc.s)
		}
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("%s on a %d-clique: planning took %v", tc.s, tc.n, took)
		}
		if p.CachedPlan {
			t.Fatalf("%s on a %d-clique: the plan was cached", tc.s, tc.n)
		}
	}
}
