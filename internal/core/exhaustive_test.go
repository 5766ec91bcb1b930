package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/testutil"
)

func TestPartitionsEnumeratesBellNumbers(t *testing.T) {
	bell := map[int]int{1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
	for n, want := range bell {
		count := 0
		partitions(n, func(c query.Cover) {
			if err := c.Validate(n); err != nil {
				t.Fatalf("invalid partition %v: %v", c, err)
			}
			count++
		})
		if count != want {
			t.Fatalf("partitions(%d) = %d, want Bell number %d", n, count, want)
		}
	}
}

func TestPartitionsDistinct(t *testing.T) {
	seen := map[string]bool{}
	partitions(4, func(c query.Cover) {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate partition %v", c)
		}
		seen[k] = true
	})
}

func TestExhaustiveAtomBound(t *testing.T) {
	g := mustGraph(t, bookGraph)
	d := g.Dict()
	atoms := make([]query.Atom, MaxExhaustiveAtoms+1)
	p := d.EncodeIRI("http://example.org/hasTitle")
	for i := range atoms {
		atoms[i] = query.Atom{
			S: query.Variable("x"),
			P: query.Constant(p),
			O: query.Variable(fmt.Sprintf("y%d", i)),
		}
	}
	q := query.NewCQ([]string{"x"}, atoms)
	r := NewReformulator(g.Schema())
	st := storage.Build(d, g.AllTriples())
	m := cost.NewModel(stats.Collect(st))
	if _, err := ExhaustiveCov(r, m, q, GCovOptions{}); err == nil {
		t.Fatal("queries beyond the atom bound must be rejected")
	}
}

// TestExhaustiveNeverWorseThanGCovEstimate: the exhaustive optimum's
// estimated cost is ≤ GCov's pick among partition covers... GCov may adopt
// an overlapping cover outside the partition space, so compare both
// directions loosely: the exhaustive answer set must equal GCov's, and the
// exhaustive cost must be ≤ the singleton (SCQ) cover's cost.
func TestExhaustiveVsGCovRandom(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 6
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatal(err)
			}
			g := sc.Graph
			q := sc.RandomQuery(rng)
			r := NewReformulator(g.Schema())
			st := storage.Build(g.Dict(), g.AllTriples())
			ss := stats.Collect(st)
			m := cost.NewModel(ss)

			ex, err := ExhaustiveCov(r, m, q, GCovOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gc, err := GCov(r, m, q, GCovOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Cost optimality within the partition space: the exhaustive
			// pick is at most the singleton cover's estimate.
			singleton, err := r.ReformulateJUCQ(q, query.SingletonCover(len(q.Atoms)), 0)
			if err != nil {
				t.Fatal(err)
			}
			if scqEst := m.JUCQ(singleton); ex.Cost > scqEst.Cost+1e-9 {
				t.Fatalf("exhaustive cost %.1f exceeds singleton cover %.1f", ex.Cost, scqEst.Cost)
			}
			// Both picks must produce identical answers.
			refEval, _ := buildEvaluators(t, g)
			a, err := refEval.EvalJUCQContext(context.Background(), ex.JUCQ)
			if err != nil {
				t.Fatal(err)
			}
			b, err := refEval.EvalJUCQContext(context.Background(), gc.JUCQ)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Equal(b) {
				t.Fatalf("exhaustive cover %v and GCov cover %v disagree: %d vs %d rows",
					ex.Cover, gc.Cover, a.Len(), b.Len())
			}
		})
	}
}

func TestExhaustiveRecordsSpace(t *testing.T) {
	g := mustGraph(t, bookGraph)
	d := g.Dict()
	q, err := query.ParseRuleWithPrefixes(d, map[string]string{"ex": "http://example.org/"},
		`q(x) :- x rdf:type ex:Publication, x ex:hasTitle y, x ex:publishedIn z`)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReformulator(g.Schema())
	st := storage.Build(d, g.AllTriples())
	m := cost.NewModel(stats.Collect(st))
	res, err := ExhaustiveCov(r, m, q, GCovOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explored) != 5 { // Bell(3)
		t.Fatalf("want 5 explored partitions, got %d", len(res.Explored))
	}
	if err := res.Cover.Validate(3); err != nil {
		t.Fatalf("invalid winning cover: %v", err)
	}
}
