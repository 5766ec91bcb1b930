package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/trace"
)

// posedSat evaluates q as posed — no atom dropped — on G∞: q(G∞), the
// answer every complete strategy owes the reduced query.
func posedSat(t *testing.T, e *Engine, q query.CQ) *exec.Relation {
	t.Helper()
	rows, err := exec.New(e.SatStore(), e.SatStats()).EvalCQContext(context.Background(), query.HeadVarNames(q), q)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// posedIncomplete evaluates the incomplete reformulation of q as posed.
func posedIncomplete(t *testing.T, e *Engine, q query.CQ) *exec.Relation {
	t.Helper()
	rows, err := exec.New(e.Source(), e.Stats()).EvalUCQStreamContext(context.Background(), query.HeadVarNames(q),
		func(fn func(query.CQ) bool) { e.d.incRef().EnumerateCQ(q, fn) })
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// maxOracleUCQ bounds the unions ref-ucq is asked to enumerate here:
// Example 1's, which nothing reduces, has 189 225 members.
const maxOracleUCQ = 5000

// checkReduced is the oracle of the reduction on one query: q(G∞), from Sat
// evaluated on the posed query, equals Dat's answer; every complete strategy
// answers the query — reduced where it reduces — with exactly that, planned
// afresh and again out of the plan cache; ref-jucq, over the posed query's
// singleton cover, too; and ref-incomplete, reduced under its own rules,
// answers what its reformulation of the posed query does. It reports whether
// the incomplete strategy misses answers on q.
func checkReduced(t *testing.T, e *Engine, name string, q query.CQ) (gap bool) {
	t.Helper()
	ctx := context.Background()
	want := posedSat(t, e, q)
	dat, err := e.AnswerContext(ctx, q, Dat)
	if err != nil {
		t.Fatalf("%s: datalog: %v", name, err)
	}
	if !dat.Rows.Equal(want) {
		t.Fatalf("%s: datalog %d rows, sat on the posed query %d", name, dat.Rows.Len(), want.Len())
	}
	strategies := []Strategy{Sat, RefSCQ, RefGCov, RefRange}
	if rq, _ := e.Reformulator().Reduce(q); func() bool { n, _ := e.Reformulator().CombinationCount(rq); return n <= maxOracleUCQ }() {
		strategies = append(strategies, RefUCQ)
	}
	for _, s := range strategies {
		for _, round := range []string{"planned", "cached"} {
			got, err := e.AnswerContext(ctx, q, s)
			if err != nil {
				t.Fatalf("%s: %s (%s): %v", name, s, round, err)
			}
			if !got.Rows.Equal(want) {
				t.Fatalf("%s: %s (%s) %d rows, q(G∞) %d", name, s, round, got.Rows.Len(), want.Len())
			}
		}
	}
	jucq, err := e.AnswerWithCoverContext(ctx, q, query.SingletonCover(len(q.Atoms)))
	if err != nil {
		t.Fatalf("%s: ref-jucq: %v", name, err)
	}
	if !jucq.Rows.Equal(want) {
		t.Fatalf("%s: ref-jucq %d rows, q(G∞) %d", name, jucq.Rows.Len(), want.Len())
	}
	inc, err := e.AnswerContext(ctx, q, RefIncomplete)
	if err != nil {
		t.Fatalf("%s: ref-incomplete: %v", name, err)
	}
	if posed := posedIncomplete(t, e, q); !inc.Rows.Equal(posed) {
		t.Fatalf("%s: ref-incomplete %d rows, its reformulation of the posed query %d", name, inc.Rows.Len(), posed.Len())
	}
	return inc.Rows.Len() < want.Len()
}

// TestReductionKeepsAnswers: on the 14 LUBM queries and Example 1, the
// INSEE, DBLP and IGN scenario queries and the hostile.ttl templates, every
// complete strategy's answer equals the posed query's q(G∞), and
// ref-incomplete's answers are those of the posed query. The LUBM
// reductions are pinned: 10 of the 44 atoms go, and Q9's 288-CQ union
// becomes one CQ.
func TestReductionKeepsAnswers(t *testing.T) {
	e, names, qs := lubmWorkload(t)
	wantDropped := map[string]int{"Q2": 1, "Q3": 1, "Q5": 1, "Q7": 2, "Q9": 3, "Q10": 1, "Q13": 1}
	gaps := 0
	for i, q := range qs {
		rq, implied := e.Reformulator().Reduce(q)
		if len(implied) != wantDropped[names[i]] || len(rq.Atoms) != len(q.Atoms)-len(implied) {
			t.Errorf("%s: %d atoms implied, %d left of %d; want %d implied", names[i], len(implied), len(rq.Atoms), len(q.Atoms), wantDropped[names[i]])
		}
		if names[i] == "Q9" {
			posed, _ := e.Reformulator().CombinationCount(q)
			reduced, _ := e.Reformulator().CombinationCount(rq)
			if posed != 288 || reduced != 1 {
				t.Errorf("Q9's union: %d CQs posed, %d reduced; want 288 and 1", posed, reduced)
			}
		}
		if checkReduced(t, e, names[i], q) && len(implied) > 0 {
			gaps++
		}
	}
	// The domain of memberOf is Person, its range Organization: nothing
	// here is implied, and a subject of memberOf typed Organization is rare.
	notImplied := mustParseLUBM(t, e, `q(x) :- x ub:memberOf y, x rdf:type ub:Organization`)
	if _, implied := e.Reformulator().Reduce(notImplied); len(implied) != 0 {
		t.Errorf("range of memberOf taken for its domain: %v", implied)
	}
	checkReduced(t, e, "memberOf-organization", notImplied)
	scs, err := datasets.All(datasets.Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		se := New(sc.Graph)
		queries, err := sc.Queries()
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			_, implied := se.Reformulator().Reduce(q)
			if checkReduced(t, se, fmt.Sprintf("%s/q%d", sc.Name, i+1), q) && len(implied) > 0 {
				gaps++
			}
		}
	}
	// The incomplete strategy misses answers on queries the complete rules
	// reduce: had it reduced with domain and range, it would have found them.
	if gaps == 0 {
		t.Error("no reduced query on which ref-incomplete misses answers")
	}

	g := hostileGraph(t)
	he := New(g)
	pool := spread(iriPool(g), 5)
	for _, tpl := range shapeTemplatesSmall {
		for i, c := range pool {
			text := fmt.Sprintf(tpl.text, c, pool[(i+1)%len(pool)])
			if tpl.twoSlots && i%2 == 0 {
				text = fmt.Sprintf(tpl.text, c, c)
			}
			q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ex": "http://example.org/"}, text)
			if err != nil {
				t.Fatal(err)
			}
			checkReduced(t, he, tpl.name+" "+c, q)
		}
	}
}

func mustParseLUBM(t *testing.T, e *Engine, text string) query.CQ {
	t.Helper()
	q, err := query.ParseRuleWithPrefixes(e.g.Dict(), map[string]string{"ub": lubm.NS}, text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// reductionGraph has a subClassOf cycle (A, B), a sub-property chain p1 ⊑
// p2 ⊑ p3 into p3's domain and range, a range reaching E through C ⊑ E, a
// subPropertyOf cycle (q1, q2) and a range over literals.
const reductionGraph = `@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:A .
ex:C rdfs:subClassOf ex:E .
ex:p1 rdfs:subPropertyOf ex:p2 .
ex:p2 rdfs:subPropertyOf ex:p3 .
ex:p3 rdfs:domain ex:A .
ex:p3 rdfs:range ex:C .
ex:q1 rdfs:subPropertyOf ex:q2 .
ex:q2 rdfs:subPropertyOf ex:q1 .
ex:name rdfs:range ex:Label .
ex:a ex:p1 ex:b .
ex:c ex:p2 ex:d .
ex:e ex:p3 ex:f .
ex:g a ex:A .
ex:h a ex:B .
ex:f a ex:C .
ex:k a ex:E .
ex:a ex:q1 ex:c .
ex:c ex:q2 ex:e .
ex:a ex:name "Ann" .
ex:k ex:name "Kim" .
ex:i ex:other ex:j .
`

// TestReductionHandCases pins what the rule drops, and checks each case
// against the oracle: a subClassOf cycle keeps one of its atoms, a
// sub-property chain reaches a range, the range rule types a literal, a head
// variable only in a candidate keeps it, equal constants reduce a request
// but not its shape, and variable classes and schema atoms stay.
func TestReductionHandCases(t *testing.T) {
	g, err := graph.ParseString(reductionGraph)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	cases := []struct {
		name, text string
		sat, shape int // atoms implied: in the request (Sat), in its shape (ref-gcov)
	}{
		{"subclass-cycle", `q(x) :- x rdf:type ex:A, x rdf:type ex:B`, 1, 1},
		{"subclass-cycle-three", `q(x) :- x rdf:type ex:B, x rdf:type ex:A, x rdf:type ex:B`, 2, 2},
		{"chain-into-range", `q(x, y) :- y rdf:type ex:E, x ex:p1 y`, 1, 1},
		{"chain-into-domain", `q(x) :- x ex:p1 y, x rdf:type ex:B`, 1, 1},
		{"chain-subproperty", `q(x, y) :- x ex:p3 y, x ex:p1 y`, 1, 1},
		{"subproperty-cycle", `q(x, y) :- x ex:q1 y, x ex:q2 y`, 1, 1},
		{"literal-object", `q(x) :- x ex:name "Ann", "Ann" rdf:type ex:Label`, 1, 0},
		{"literal-variable", `q(x, l) :- x ex:name l, l rdf:type ex:Label`, 1, 1},
		{"head-only-in-candidate", `q(x, z) :- x ex:p1 y, z rdf:type ex:C`, 0, 0},
		{"head-in-both", `q(y) :- x ex:p1 y, y rdf:type ex:C`, 1, 1},
		{"equal-constants", `q(x) :- x ex:p1 ex:b, ex:b rdf:type ex:C`, 1, 0},
		{"range-is-not-domain", `q(x) :- x ex:p3 y, x rdf:type ex:C`, 0, 0},
		{"domain-is-not-range", `q(y) :- x ex:p3 y, y rdf:type ex:A`, 0, 0},
		{"variable-class", `q(x, u) :- x ex:p1 y, x rdf:type u, x rdf:type u`, 0, 0},
		{"variable-property", `q(x, p) :- x ex:p1 y, x p y`, 0, 0},
		{"schema-atom", `q(x) :- x rdfs:subClassOf ex:A, x rdfs:subClassOf ex:A`, 0, 0},
		{"duplicate", `q(x) :- x ex:other y, x ex:other y`, 1, 1},
	}
	for _, c := range cases {
		q := mustQuery(t, g, c.text)
		for s, want := range map[Strategy]int{Sat: c.sat, RefGCov: c.shape} {
			p, err := e.prepare(q, s, nil, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, s, err)
			}
			if len(p.implied) != want {
				t.Errorf("%s: %s drops %d atoms, want %d", c.name, s, len(p.implied), want)
			}
			if len(p.reduced.Atoms) == 0 {
				t.Errorf("%s: %s drops every atom", c.name, s)
			}
		}
		checkReduced(t, e, c.name, q)
	}
}

// Reducing a query nothing is implied in costs no allocation: Sat and the
// UCQ strategies pay it on every request.
func TestReduceAllocatesNothingWhenNothingIsImplied(t *testing.T) {
	e, ex1 := exampleOneEngine(t)
	r := e.Reformulator()
	if n := testing.AllocsPerRun(100, func() { r.Reduce(ex1) }); n != 0 {
		t.Fatalf("Reduce of Example 1 allocates %v times", n)
	}
}

// EXPLAIN, plain and ANALYZE, lists each dropped atom, the atom that implies
// it and the constraint through which it does; covers number the posed
// atoms. Example 1 loses nothing and shows no such node.
func TestExplainListsImpliedAtoms(t *testing.T) {
	e, names, qs := lubmWorkload(t)
	byName := map[string]query.CQ{}
	for i, n := range names {
		byName[n] = qs[i]
	}
	const rdfs = "http://www.w3.org/2000/01/rdf-schema#"
	plan, err := e.Plan(byName["Q5"], RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	text := plan.Explain()
	wantLine := `implied atom="t1 x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <` + lubm.NS + `Person>" by="t2 x <` + lubm.NS + `memberOf> <http://www.Department0.University0.edu>" constraint="<` + lubm.NS + `memberOf> <` + rdfs + `domain> <` + lubm.NS + `Person>"`
	if !strings.Contains(text, wantLine) {
		t.Errorf("EXPLAIN of Q5 lacks\n  %s\n%s", wantLine, text)
	}
	if got := plan.Cover.String(); got != "{{t2}}" {
		t.Errorf("Q5's cover %s, want {{t2}}: the posed atom left", got)
	}
	for _, s := range []Strategy{Sat, RefGCov, RefRange, RefUCQ} {
		e.Tracer = trace.New(0)
		if _, err := e.AnswerContext(context.Background(), byName["Q9"], s); err != nil {
			t.Fatal(err)
		}
		var constraints []string
		walk(trace.ToJSON(e.Tracer.Root()), func(n *trace.SpanJSON) {
			if n.Name == "implied" {
				constraints = append(constraints, fmt.Sprint(n.Attrs["constraint"]))
			}
		})
		e.Tracer = nil
		want := []string{
			"<" + lubm.NS + "takesCourse> <" + rdfs + "domain> <" + lubm.NS + "Student>",
			"<" + lubm.NS + "advisor> <" + rdfs + "range> <" + lubm.NS + "Professor>, <" + lubm.NS + "Professor> <" + rdfs + "subClassOf> <" + lubm.NS + "Faculty>",
			"<" + lubm.NS + "teacherOf> <" + rdfs + "range> <" + lubm.NS + "Course>",
		}
		if strings.Join(constraints, "\n") != strings.Join(want, "\n") {
			t.Errorf("ANALYZE of Q9 under %s lists\n  %q\nwant\n  %q", s, constraints, want)
		}
	}
	ex1, err := e.Plan(byName["Ex1"], RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex1.Explain(), "implied") {
		t.Error("EXPLAIN of Example 1 lists an implied atom")
	}
}
