package lubm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/rdf"
)

func TestOntologyWellFormed(t *testing.T) {
	ts := OntologyTriples()
	if len(ts) == 0 {
		t.Fatal("empty ontology")
	}
	for _, tr := range ts {
		if !tr.WellFormed() {
			t.Errorf("ill-formed ontology triple: %v", tr)
		}
		if !rdf.IsSchemaTriple(tr) {
			t.Errorf("non-schema triple in ontology: %v", tr)
		}
	}
}

func TestOntologyHierarchy(t *testing.T) {
	g, err := NewGraph(Mini(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dict()
	s := g.Schema()
	id := func(name string) uint32 {
		v, ok := d.Lookup(Class(name))
		if !ok {
			t.Fatalf("class %s missing from dictionary", name)
		}
		return uint32(v)
	}
	cases := [][2]string{
		{"FullProfessor", "Person"},
		{"FullProfessor", "Employee"},
		{"GraduateStudent", "Student"},
		{"JournalArticle", "Publication"},
		{"GraduateCourse", "Work"},
		{"ResearchGroup", "Organization"},
	}
	for _, c := range cases {
		sub, _ := d.Lookup(Class(c[0]))
		super, _ := d.Lookup(Class(c[1]))
		if !s.IsSubClass(sub, super) {
			t.Errorf("%s ⊑ %s missing from closure", c[0], c[1])
		}
	}
	_ = id
	// Subproperty chain headOf ⊑ worksFor ⊑ memberOf.
	ho, _ := d.Lookup(Prop("headOf"))
	mo, _ := d.Lookup(Prop("memberOf"))
	if !s.IsSubProperty(ho, mo) {
		t.Error("headOf ⊑ memberOf missing")
	}
	// headOf inherits worksFor's domain Employee.
	emp, _ := d.Lookup(Class("Employee"))
	found := false
	for _, c := range s.Domains(ho) {
		if c == emp {
			found = true
		}
	}
	if !found {
		t.Error("headOf must inherit domain Employee")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Mini(), 7)
	b := Generate(Mini(), 7)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d differs across runs", i)
		}
	}
	c := Generate(Mini(), 8)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds must differ")
		}
	}
}

func TestGenerateWellFormed(t *testing.T) {
	for _, tr := range Generate(Mini(), 3) {
		if !tr.WellFormed() {
			t.Fatalf("ill-formed generated triple: %v", tr)
		}
		if rdf.IsSchemaTriple(tr) {
			t.Fatalf("generator must not emit schema triples: %v", tr)
		}
	}
}

func TestGenerateScales(t *testing.T) {
	mini := len(Generate(Mini(), 1))
	p := Mini()
	p.Universities = 2
	double := len(Generate(p, 1))
	if double < mini*3/2 {
		t.Fatalf("2 universities (%d triples) should be well above 1 (%d)", double, mini)
	}
}

func TestParseQueries(t *testing.T) {
	g, err := NewGraph(Mini(), 1)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := ParseQueries(g.Dict(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 14 {
		t.Fatalf("want 14 queries, got %d", len(qs))
	}
	for _, pq := range qs {
		if err := pq.CQ.Validate(); err != nil {
			t.Errorf("%s invalid: %v", pq.Name, err)
		}
	}
}

func TestExampleOneShape(t *testing.T) {
	g, err := NewGraph(Mini(), 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ExampleOne(g.Dict(), "http://www.University5.edu")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Atoms) != 6 || len(q.Head) != 5 {
		t.Fatalf("example 1 must have 6 atoms, 5 head vars; got %d and %d", len(q.Atoms), len(q.Head))
	}
	if err := ExampleOneCover().Validate(6); err != nil {
		t.Fatalf("paper cover invalid: %v", err)
	}
}

// The headline reproduction check at Mini scale: all complete strategies
// agree on Example 1 and on the LUBM queries; the UCQ blow-up is present.
func TestStrategiesAgreeOnLUBM(t *testing.T) {
	g, err := NewGraph(Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g)
	univ := PickExampleOneUniversity(g)
	var queries []query.CQ
	if univ != "" {
		q1, err := ExampleOne(g.Dict(), univ)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q1)
	}
	qs, err := ParseQueries(g.Dict(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pq := range qs {
		queries = append(queries, pq.CQ)
	}
	for qi, q := range queries {
		want, err := e.AnswerContext(context.Background(), q, engine.Sat)
		if err != nil {
			t.Fatalf("query %d sat: %v", qi, err)
		}
		for _, s := range []engine.Strategy{engine.RefSCQ, engine.RefGCov, engine.Dat} {
			got, err := e.AnswerContext(context.Background(), q, s)
			if err != nil {
				t.Fatalf("query %d %s: %v", qi, s, err)
			}
			if !got.Rows.Equal(want.Rows) {
				t.Fatalf("query %d: %s gives %d rows, sat gives %d",
					qi, s, got.Rows.Len(), want.Rows.Len())
			}
		}
	}
}

// The completeness gap: the incomplete strategy must lose answers on a
// range-dependent query — external universities are typed only through
// degreeFrom's range, never explicitly.
func TestIncompleteLosesAnswers(t *testing.T) {
	g, err := NewGraph(Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g)
	q6, err := query.ParseRuleWithPrefixes(g.Dict(), queryPrefixes, `q(x) :- x rdf:type ub:University`)
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.AnswerContext(context.Background(), q6, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	part, err := e.AnswerContext(context.Background(), q6, engine.RefIncomplete)
	if err != nil {
		t.Fatal(err)
	}
	if part.Rows.Len() >= full.Rows.Len() {
		t.Fatalf("incomplete Ref should miss answers: %d vs %d", part.Rows.Len(), full.Rows.Len())
	}
	if full.Rows.Len() == 0 {
		t.Fatal("the University query should have answers")
	}
}

func TestExampleOneCombinationBlowup(t *testing.T) {
	g, err := NewGraph(Mini(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g)
	q, err := ExampleOne(g.Dict(), "http://www.University1.edu")
	if err != nil {
		t.Fatal(err)
	}
	total, per := e.Reformulator().CombinationCount(q)
	if total < 100000 {
		t.Fatalf("Example 1 UCQ must blow up (paper: 318,096); got %d", total)
	}
	// memberOf has exactly the subproperties worksFor and headOf.
	if per[4] != 3 || per[5] != 3 {
		t.Fatalf("memberOf atoms must have 3 reformulations, got %v", per)
	}
	// mastersDegreeFrom / doctoralDegreeFrom have none.
	if per[2] != 1 || per[3] != 1 {
		t.Fatalf("degree atoms must have 1 reformulation, got %v", per)
	}
}

func TestPickExampleOneUniversity(t *testing.T) {
	g, err := NewGraph(Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	univ := PickExampleOneUniversity(g)
	if univ == "" {
		t.Fatal("default profile should admit a non-empty Example 1")
	}
	if !strings.HasPrefix(univ, "http://www.University") {
		t.Fatalf("unexpected IRI %q", univ)
	}
	e := engine.New(g)
	q, err := ExampleOne(g.Dict(), univ)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows.Len() == 0 {
		t.Fatal("picked university must yield answers")
	}
}

func TestClassNamesCopy(t *testing.T) {
	names := ClassNames()
	if len(names) < 40 {
		t.Fatalf("univ-bench should have ≥40 classes, got %d", len(names))
	}
	names[0] = "mutated"
	if ClassNames()[0] == "mutated" {
		t.Fatal("ClassNames must return a copy")
	}
}
