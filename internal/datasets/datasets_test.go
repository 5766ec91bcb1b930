package datasets

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
)

func TestAllScenariosBuild(t *testing.T) {
	scs, err := All(Small, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(scs))
	}
	names := map[string]bool{}
	for _, sc := range scs {
		names[sc.Name] = true
		if sc.Graph.DataCount() == 0 {
			t.Errorf("%s: empty data", sc.Name)
		}
		c, p, _, _, d, r := sc.Graph.Schema().Size()
		if c == 0 || p == 0 || d == 0 || r == 0 {
			t.Errorf("%s: schema lacks constraints: %v", sc.Name, sc.Graph.Schema())
		}
		qs, err := sc.Queries()
		if err != nil {
			t.Fatalf("%s queries: %v", sc.Name, err)
		}
		if len(qs) < 3 {
			t.Errorf("%s: want ≥3 queries, got %d", sc.Name, len(qs))
		}
	}
	for _, want := range []string{"insee", "ign", "dblp"} {
		if !names[want] {
			t.Errorf("missing scenario %s", want)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a, err := INSEE(Small, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := INSEE(Small, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.DataCount() != b.Graph.DataCount() {
		t.Fatal("INSEE generator must be deterministic")
	}
}

// Every scenario query must be reasoning-sensitive or at least consistent:
// all complete strategies agree, and at least one query per scenario gains
// answers from reasoning (Ref > direct evaluation).
func TestScenarioStrategiesAgree(t *testing.T) {
	scs, err := All(Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			e := engine.New(sc.Graph)
			qs, err := sc.Queries()
			if err != nil {
				t.Fatal(err)
			}
			gainSeen := false
			for qi, q := range qs {
				sat, err := e.AnswerContext(context.Background(), q, engine.Sat)
				if err != nil {
					t.Fatalf("q%d sat: %v", qi, err)
				}
				for _, s := range []engine.Strategy{engine.RefSCQ, engine.RefGCov} {
					got, err := e.AnswerContext(context.Background(), q, s)
					if err != nil {
						t.Fatalf("q%d %s: %v", qi, s, err)
					}
					if !got.Rows.Equal(sat.Rows) {
						t.Fatalf("q%d: %s %d rows != sat %d rows", qi, s, got.Rows.Len(), sat.Rows.Len())
					}
				}
				// Direct evaluation (no reasoning) for the gain check.
				direct, err := newDirect(e).EvalCQContext(context.Background(), query.HeadVarNames(q), q)
				if err != nil {
					t.Fatalf("q%d direct: %v", qi, err)
				}
				if direct.Len() < sat.Rows.Len() {
					gainSeen = true
				}
			}
			if !gainSeen {
				t.Errorf("%s: no query gains answers from reasoning — scenario pointless", sc.Name)
			}
		})
	}
}

func TestIGNImplicitRiverTyping(t *testing.T) {
	sc, err := IGN(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Rivers are mostly untyped; the River query must still find them.
	e := engine.New(sc.Graph)
	q := mustParse(t, sc, `q(x) :- x rdf:type ign:River`)
	full, err := e.AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := e.AnswerContext(context.Background(), q, engine.RefIncomplete)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rows.Len() <= inc.Rows.Len() {
		t.Fatalf("river typing should need domain reasoning: full=%d incomplete=%d",
			full.Rows.Len(), inc.Rows.Len())
	}
}

func TestDBLPPersonsOnlyImplicit(t *testing.T) {
	sc, err := DBLP(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(sc.Graph)
	q := mustParse(t, sc, `q(x) :- x rdf:type dblp:Person`)
	ans, err := e.AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows.Len() == 0 {
		t.Fatal("persons must be derivable from creator ranges")
	}
	inc, err := e.AnswerContext(context.Background(), q, engine.RefIncomplete)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Rows.Len() != 0 {
		t.Fatalf("no person is explicit; incomplete should find 0, got %d", inc.Rows.Len())
	}
}

// --- helpers ---------------------------------------------------------------

// newDirect builds an evaluator over the explicit store (no reformulation,
// no saturation): the "incomplete answer" baseline of §3.
func newDirect(e *engine.Engine) *exec.Evaluator {
	return exec.New(e.Store(), e.Stats())
}

func mustParse(t *testing.T, sc *Scenario, text string) query.CQ {
	t.Helper()
	q, err := query.ParseRuleWithPrefixes(sc.Graph.Dict(), sc.Prefixes, text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return q
}
