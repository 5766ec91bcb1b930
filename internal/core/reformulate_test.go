package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/saturation"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// buildEvaluators returns (refEval over explicit data + closed schema,
// satEval over G∞) for a graph.
func buildEvaluators(t *testing.T, g *graph.Graph) (*exec.Evaluator, *exec.Evaluator) {
	t.Helper()
	refStore := storage.Build(g.Dict(), g.AllTriples())
	refEval := exec.New(refStore, stats.Collect(refStore))
	satStore := storage.Build(g.Dict(), saturation.Saturate(g).Triples())
	satEval := exec.New(satStore, stats.Collect(satStore))
	return refEval, satEval
}

func mustGraph(t *testing.T, turtle string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseString(turtle)
	if err != nil {
		t.Fatalf("parse graph: %v", err)
	}
	return g
}

const bookGraph = `
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 a ex:Book .
ex:doi1 ex:writtenBy _:b1 .
ex:doi1 ex:hasTitle "El Aleph" .
_:b1 ex:hasName "J. L. Borges" .
ex:doi1 ex:publishedIn "1949" .
`

// TestPaperExampleQuery reproduces the §3 example: the query asking for
// names of authors of things connected to "1949" answers
// {"J. L. Borges"} under reformulation, and nothing when evaluated
// directly against the explicit triples.
func TestPaperExampleQuery(t *testing.T) {
	g := mustGraph(t, bookGraph)
	d := g.Dict()
	q, err := query.ParseRuleWithPrefixes(d, map[string]string{"ex": "http://example.org/"},
		`q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3, x1 x4 "1949"`)
	if err != nil {
		t.Fatalf("parse query: %v", err)
	}
	refEval, satEval := buildEvaluators(t, g)

	direct, err := refEval.EvalCQContext(context.Background(), query.HeadVarNames(q), q)
	if err != nil {
		t.Fatalf("direct eval: %v", err)
	}
	if direct.Len() != 0 {
		t.Fatalf("direct evaluation should be empty (incomplete), got %d rows", direct.Len())
	}

	r := NewReformulator(g.Schema())
	u := r.ReformulateCQ(q)
	got, err := refEval.EvalUCQContext(context.Background(), u)
	if err != nil {
		t.Fatalf("reformulated eval: %v", err)
	}
	if got.Len() != 1 {
		t.Fatalf("want 1 answer, got %d", got.Len())
	}
	name := d.Decode(got.Row(0)[0])
	if name.Value != "J. L. Borges" {
		t.Fatalf("want J. L. Borges, got %s", name)
	}

	want, err := satEval.EvalCQContext(context.Background(), query.HeadVarNames(q), q)
	if err != nil {
		t.Fatalf("sat eval: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("reformulation disagrees with saturation")
	}
}

// TestReformulationRulesSmall spot-checks each rule family on the book
// graph.
func TestReformulationRulesSmall(t *testing.T) {
	g := mustGraph(t, bookGraph)
	d := g.Dict()
	prefixes := map[string]string{"ex": "http://example.org/"}
	r := NewReformulator(g.Schema())
	refEval, satEval := buildEvaluators(t, g)

	cases := []struct {
		name  string
		text  string
		nRows int
	}{
		{"rule1-subclass", `q(x) :- x rdf:type ex:Publication`, 1},
		{"rule2-domain", `q(x) :- x rdf:type ex:Book`, 1},
		{"rule3-range", `q(x) :- x rdf:type ex:Person`, 1},
		{"rule4-subproperty", `q(x, y) :- x ex:hasAuthor y`, 1},
		{"rule5to7-classvar", `q(x, c) :- x rdf:type c`, -1},
		{"rule8to11-propvar", `q(x, p, y) :- x p y`, -1},
		{"schema-atom", `q(c) :- c rdfs:subClassOf ex:Publication`, 1},
		{"join", `q(n) :- b rdf:type ex:Publication, b ex:writtenBy a, a ex:hasName n`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := query.ParseRuleWithPrefixes(d, prefixes, tc.text)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			u := r.ReformulateCQ(q)
			got, err := refEval.EvalUCQContext(context.Background(), u)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			want, err := satEval.EvalCQContext(context.Background(), query.HeadVarNames(q), q)
			if err != nil {
				t.Fatalf("sat eval: %v", err)
			}
			if !got.Equal(want) {
				t.Fatalf("reformulation (%d rows) disagrees with saturation (%d rows)\nUCQ:\n%s",
					got.Len(), want.Len(), query.FormatUCQ(d, u, 50))
			}
			if tc.nRows >= 0 && got.Len() != tc.nRows {
				t.Fatalf("want %d rows, got %d", tc.nRows, got.Len())
			}
		})
	}
}

// TestReformulationMatchesSaturationRandom is the repository's central
// property: for random schemas, graphs and queries,
// reformulate(q)(explicit data + closed schema) == q(G∞).
func TestReformulationMatchesSaturationRandom(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 25
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatalf("scenario: %v", err)
			}
			refEval, satEval := buildEvaluators(t, sc.Graph)
			r := NewReformulator(sc.Graph.Schema())
			for qi := 0; qi < 4; qi++ {
				q := sc.RandomQuery(rng)
				want, err := satEval.EvalCQContext(context.Background(), query.HeadVarNames(q), q)
				if err != nil {
					t.Fatalf("sat eval: %v", err)
				}
				u := r.ReformulateCQ(q)
				got, err := refEval.EvalUCQContext(context.Background(), u)
				if err != nil {
					t.Fatalf("ucq eval: %v", err)
				}
				if !got.Equal(want) {
					t.Fatalf("query %s:\nreformulation %d rows != saturation %d rows\nUCQ:\n%s",
						query.FormatCQ(sc.Graph.Dict(), q), got.Len(), want.Len(),
						query.FormatUCQ(sc.Graph.Dict(), u, 60))
				}
			}
		})
	}
}

// TestCoversMatchUCQRandom checks that every cover's JUCQ answers equal the
// UCQ answers — covers are a pure evaluation-strategy choice (§4).
func TestCoversMatchUCQRandom(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatalf("scenario: %v", err)
			}
			refEval, _ := buildEvaluators(t, sc.Graph)
			r := NewReformulator(sc.Graph.Schema())
			q := sc.RandomQuery(rng)
			u := r.ReformulateCQ(q)
			want, err := refEval.EvalUCQContext(context.Background(), u)
			if err != nil {
				t.Fatalf("ucq eval: %v", err)
			}
			covers := []query.Cover{
				query.SingletonCover(len(q.Atoms)),
				query.OneBlockCover(len(q.Atoms)),
				randomCover(rng, len(q.Atoms)),
			}
			for _, c := range covers {
				j, err := r.ReformulateJUCQ(q, c, 0)
				if err != nil {
					t.Fatalf("jucq %v: %v", c, err)
				}
				got, err := refEval.EvalJUCQContext(context.Background(), j)
				if err != nil {
					t.Fatalf("jucq eval %v: %v", c, err)
				}
				if !got.Equal(want) {
					t.Fatalf("cover %v: %d rows != UCQ %d rows (query %s)",
						c, got.Len(), want.Len(), query.FormatCQ(sc.Graph.Dict(), q))
				}
			}
		})
	}
}

// randomCover builds a valid random cover: a random partition plus random
// duplicated atoms (covers may overlap).
func randomCover(rng *rand.Rand, n int) query.Cover {
	nFrags := 1 + rng.Intn(n)
	frags := make([]map[int]bool, nFrags)
	for i := range frags {
		frags[i] = map[int]bool{}
	}
	for a := 0; a < n; a++ {
		frags[rng.Intn(nFrags)][a] = true
		if rng.Intn(3) == 0 { // overlap
			frags[rng.Intn(nFrags)][a] = true
		}
	}
	var c query.Cover
	for _, f := range frags {
		if len(f) == 0 {
			continue
		}
		var idxs []int
		for a := 0; a < n; a++ {
			if f[a] {
				idxs = append(idxs, a)
			}
		}
		c = append(c, idxs)
	}
	return c
}

// TestIncompleteReformulationMissesAnswers checks the completeness gap:
// the subsumption-only strategy returns a subset of the complete answers,
// and strictly misses domain/range-derived ones on the book graph.
func TestIncompleteReformulationMissesAnswers(t *testing.T) {
	g := mustGraph(t, bookGraph)
	d := g.Dict()
	q, err := query.ParseRuleWithPrefixes(d, map[string]string{"ex": "http://example.org/"},
		`q(x) :- x rdf:type ex:Person`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	refEval, _ := buildEvaluators(t, g)
	complete := NewReformulator(g.Schema())
	incomplete := NewIncompleteReformulator(g.Schema())
	full, err := refEval.EvalUCQContext(context.Background(), complete.ReformulateCQ(q))
	if err != nil {
		t.Fatal(err)
	}
	part, err := refEval.EvalUCQContext(context.Background(), incomplete.ReformulateCQ(q))
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 1 || part.Len() != 0 {
		t.Fatalf("want complete=1 incomplete=0, got %d and %d", full.Len(), part.Len())
	}
}

// TestAtomReformulationIdentityFirst checks the contract that the first
// reformulation is the identity with an empty binding.
func TestAtomReformulationIdentityFirst(t *testing.T) {
	g := mustGraph(t, bookGraph)
	r := NewReformulator(g.Schema())
	a := query.Atom{
		S: query.Variable("x"),
		P: query.Constant(g.Dict().EncodeIRI(rdf.TypeIRI)),
		O: query.Variable("c"),
	}
	refs := r.AtomReformulations(a, 0)
	if len(refs) == 0 {
		t.Fatal("no reformulations")
	}
	if refs[0].Atom != a || len(refs[0].Binding) != 0 {
		t.Fatalf("first reformulation is not the identity: %+v", refs[0])
	}
}

// TestCombinationCountMultiplies checks that the combination count is the
// product of per-atom counts.
func TestCombinationCountMultiplies(t *testing.T) {
	g := mustGraph(t, bookGraph)
	d := g.Dict()
	q, err := query.ParseRuleWithPrefixes(d, map[string]string{"ex": "http://example.org/"},
		`q(x, y) :- x rdf:type ex:Publication, x ex:hasAuthor y`)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReformulator(g.Schema())
	total, per := r.CombinationCount(q)
	if len(per) != 2 {
		t.Fatalf("want 2 per-atom counts, got %d", len(per))
	}
	if total != per[0]*per[1] {
		t.Fatalf("total %d != %d * %d", total, per[0], per[1])
	}
	// Publication has Book ⊑ Publication, writtenBy ←d Book:
	// identity + (x τ Book) + (x writtenBy f) + (x hasAuthor f)? hasAuthor
	// has no domain; writtenBy inherits none upward. Expect 3.
	if per[0] != 3 {
		t.Fatalf("atom 1: want 3 reformulations, got %d", per[0])
	}
	// hasAuthor: identity + writtenBy ⊑sp hasAuthor = 2.
	if per[1] != 2 {
		t.Fatalf("atom 2: want 2 reformulations, got %d", per[1])
	}
}

// TestMinimizedReformulationEquivalent: the members a fragment runs
// (query.UCQ.Merged: cores, subsumed members dropped, merged) answer what the
// reformulation does, and are never more.
func TestMinimizedReformulationEquivalent(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 8
	}
	totalDropped := 0
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(5000 + seed)))
		sc, err := testutil.RandomScenario(rng)
		if err != nil {
			t.Fatal(err)
		}
		refEval, _ := buildEvaluators(t, sc.Graph)
		r := NewReformulator(sc.Graph.Schema())
		for qi := 0; qi < 2; qi++ {
			q := sc.RandomQuery(rng)
			u := r.ReformulateCQ(q)
			if len(u.CQs) > 250 {
				continue // keep the quadratic minimization fast in tests
			}
			want, err := refEval.EvalUCQContext(context.Background(), u)
			if err != nil {
				t.Fatal(err)
			}
			members := u.Merged()
			if len(members) > len(u.CQs) {
				t.Fatalf("seed %d query %s: %d members run for %d CQs", seed, query.FormatCQ(sc.Graph.Dict(), q), len(members), len(u.CQs))
			}
			totalDropped += len(u.CQs) - len(members)
			got, err := refEval.EvalRangeUCQContext(context.Background(), query.RangeUCQ{HeadNames: u.HeadNames, CQs: members})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d query %s: minimized UCQ (%d members) != original (%d CQs): %d vs %d rows",
					seed, query.FormatCQ(sc.Graph.Dict(), q), len(members), len(u.CQs), got.Len(), want.Len())
			}
		}
	}
	t.Logf("minimization and merging ran %d fewer members across the run", totalDropped)
}
