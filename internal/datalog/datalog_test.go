package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/saturation"
	"repro/internal/testutil"
)

func v(n string) query.Arg   { return query.Variable(n) }
func c(id dict.ID) query.Arg { return query.Constant(id) }

func TestTransitiveClosure(t *testing.T) {
	// edge facts 1→2→3→4; path = transitive closure.
	p := &Program{
		Rules: []Rule{
			{Head: Atom{Pred: "path", Args: []query.Arg{v("X"), v("Y")}},
				Body: []Atom{{Pred: "edge", Args: []query.Arg{v("X"), v("Y")}}}},
			{Head: Atom{Pred: "path", Args: []query.Arg{v("X"), v("Z")}},
				Body: []Atom{
					{Pred: "path", Args: []query.Arg{v("X"), v("Y")}},
					{Pred: "edge", Args: []query.Arg{v("Y"), v("Z")}},
				}},
		},
		Facts: []Fact{
			{Pred: "edge", Args: []dict.ID{1, 2}},
			{Pred: "edge", Args: []dict.ID{2, 3}},
			{Pred: "edge", Args: []dict.ID{3, 4}},
		},
	}
	e, err := RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Count("path"); got != 6 {
		t.Fatalf("path count = %d, want 6", got)
	}
}

func TestConstantsInRules(t *testing.T) {
	p := &Program{
		Rules: []Rule{
			{Head: Atom{Pred: "hit", Args: []query.Arg{v("X")}},
				Body: []Atom{{Pred: "t", Args: []query.Arg{v("X"), c(7)}}}},
		},
		Facts: []Fact{
			{Pred: "t", Args: []dict.ID{1, 7}},
			{Pred: "t", Args: []dict.ID{2, 8}},
		},
	}
	e, err := RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	tuples := e.Tuples("hit")
	if len(tuples) != 1 || tuples[0][0] != 1 {
		t.Fatalf("hit = %v", tuples)
	}
}

func TestRepeatedVariableInBody(t *testing.T) {
	p := &Program{
		Rules: []Rule{
			{Head: Atom{Pred: "loop", Args: []query.Arg{v("X")}},
				Body: []Atom{{Pred: "t", Args: []query.Arg{v("X"), v("X")}}}},
		},
		Facts: []Fact{
			{Pred: "t", Args: []dict.ID{1, 1}},
			{Pred: "t", Args: []dict.ID{1, 2}},
		},
	}
	e, err := RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Count("loop") != 1 {
		t.Fatalf("loop count = %d, want 1", e.Count("loop"))
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []*Program{
		// Unsafe head variable.
		{Rules: []Rule{{
			Head: Atom{Pred: "h", Args: []query.Arg{v("X")}},
			Body: []Atom{{Pred: "t", Args: []query.Arg{v("Y")}}},
		}}},
		// Empty body.
		{Rules: []Rule{{Head: Atom{Pred: "h", Args: []query.Arg{v("X")}}}}},
		// Arity clash.
		{
			Rules: []Rule{{
				Head: Atom{Pred: "h", Args: []query.Arg{v("X")}},
				Body: []Atom{{Pred: "t", Args: []query.Arg{v("X")}}},
			}},
			Facts: []Fact{{Pred: "t", Args: []dict.ID{1, 2}}},
		},
	}
	for i, p := range cases {
		if _, err := RunContext(context.Background(), p); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestEngineStats(t *testing.T) {
	p := &Program{
		Rules: []Rule{
			{Head: Atom{Pred: "b", Args: []query.Arg{v("X")}},
				Body: []Atom{{Pred: "a", Args: []query.Arg{v("X")}}}},
		},
		Facts: []Fact{{Pred: "a", Args: []dict.ID{1}}},
	}
	e, err := RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Iterations < 1 || e.FactsDerived != 1 {
		t.Fatalf("stats: iters=%d derived=%d", e.Iterations, e.FactsDerived)
	}
}

// TestDatEqualsSaturation: the Datalog fixpoint over the RDF encoding must
// derive exactly the saturated triple set on random scenarios.
func TestDatEqualsSaturationRandom(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatal(err)
			}
			g := sc.Graph
			p := EncodeGraph(g)
			e, err := RunContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			want := saturation.Saturate(g).Triples()
			got := e.Tuples(TriplePred)
			if len(got) != len(want) {
				t.Fatalf("datalog %d triples != saturation %d", len(got), len(want))
			}
			for i := range got {
				if got[i][0] != want[i].S || got[i][1] != want[i].P || got[i][2] != want[i].O {
					t.Fatalf("triple %d differs: %v vs %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestAnswerMatchesReformulation: Dat answers equal Sat answers for random
// queries.
func TestAnswerMatchesSaturationEval(t *testing.T) {
	g, err := graph.ParseString(`
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 ex:writtenBy _:b1 .
`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ex": "http://example.org/"},
		`q(x) :- x rdf:type ex:Person`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AnswerContext(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("want 1 answer, got %d", len(rows))
	}
	if got := g.Dict().Decode(rows[0][0]); got != rdf.NewBlank("b1") {
		t.Fatalf("answer = %v", got)
	}
}

func TestAnswerBooleanQuery(t *testing.T) {
	g, err := graph.ParseString(`
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ex": "http://example.org/"},
		`q() :- x ex:p y`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AnswerContext(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("boolean true: want 1 empty tuple, got %d", len(rows))
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Head: Atom{Pred: "h", Args: []query.Arg{v("X")}},
		Body: []Atom{{Pred: "b", Args: []query.Arg{v("X"), c(3)}}},
	}
	if got := r.String(); got != "h(X) :- b(X,#3)" {
		t.Fatalf("String = %q", got)
	}
}
