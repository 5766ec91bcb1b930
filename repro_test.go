package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
)

const bookTurtle = `
@prefix ex: <http://example.org/> .
ex:Book      rdfs:subClassOf    ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain        ex:Book .
ex:writtenBy rdfs:range         ex:Person .
ex:doi1 a ex:Book ;
        ex:writtenBy _:b1 ;
        ex:hasTitle "El Aleph" ;
        ex:publishedIn "1949" .
_:b1 ex:hasName "J. L. Borges" .
`

var exPrefix = map[string]string{"ex": "http://example.org/"}

func openBook(t *testing.T) *DB {
	t.Helper()
	db, err := OpenString(bookTurtle)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenString(t *testing.T) {
	db := openBook(t)
	if db.TripleCount() != 5 {
		t.Fatalf("want 5 data triples, got %d", db.TripleCount())
	}
	if !strings.Contains(db.SchemaSummary(), "classes:3") {
		t.Fatalf("schema summary: %s", db.SchemaSummary())
	}
}

func TestOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "book.ttl")
	if err := os.WriteFile(path, []byte(bookTurtle), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.TripleCount() != 5 {
		t.Fatal("file load mismatch")
	}
	if _, err := Open(filepath.Join(dir, "missing.ttl")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestOpenReader(t *testing.T) {
	db, err := OpenReader(strings.NewReader(bookTurtle))
	if err != nil {
		t.Fatal(err)
	}
	if db.TripleCount() != 5 {
		t.Fatal("reader load mismatch")
	}
}

func TestAnswerRuleNotation(t *testing.T) {
	db := openBook(t)
	res, err := db.AnswerContext(context.Background(), `q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3, x1 x4 "1949"`,
		Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0] != `"J. L. Borges"` {
		t.Fatalf("answer: %v", res.Rows())
	}
	if res.Meta.Strategy != RefGCov {
		t.Fatalf("default strategy should be GCov, got %s", res.Meta.Strategy)
	}
	if len(res.Columns()) != 1 || res.Columns()[0] != "x3" {
		t.Fatalf("columns: %v", res.Columns())
	}
}

func TestAnswerSPARQL(t *testing.T) {
	db := openBook(t)
	res, err := db.AnswerContext(context.Background(), `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ?x a ex:Publication }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Row(0)[0] != "<http://example.org/doi1>" {
		t.Fatalf("answer: %v", res.Rows())
	}
}

func TestAnswerAllStrategies(t *testing.T) {
	db := openBook(t)
	const qt = `q(x) :- x rdf:type ex:Person`
	counts := map[Strategy]int{}
	for _, s := range []Strategy{Sat, RefUCQ, RefSCQ, RefGCov, RefRange, RefIncomplete, Dat} {
		res, err := db.AnswerContext(context.Background(), qt, Options{Strategy: s, Prefixes: exPrefix})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		counts[s] = res.Len()
	}
	for _, s := range []Strategy{Sat, RefUCQ, RefSCQ, RefGCov, RefRange, Dat} {
		if counts[s] != 1 {
			t.Fatalf("%s: want 1 answer, got %d", s, counts[s])
		}
	}
	if counts[RefIncomplete] != 0 {
		t.Fatalf("incomplete should miss the implicit Person, got %d", counts[RefIncomplete])
	}
}

func TestAnswerWithCover(t *testing.T) {
	db := openBook(t)
	res, err := db.AnswerContext(context.Background(), `q(x, t) :- x rdf:type ex:Publication, x ex:hasTitle t`,
		Options{Strategy: RefJUCQ, Cover: [][]int{{0}, {1}}, Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("want 1 row, got %d", res.Len())
	}
	if res.Meta.ReformulationCQs == 0 || res.Meta.Cover == "" {
		t.Fatalf("meta missing: %+v", res.Meta)
	}
}

func TestAnswerErrors(t *testing.T) {
	db := openBook(t)
	if _, err := db.AnswerContext(context.Background(), `not a query`, Options{}); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := db.AnswerContext(context.Background(), `q(x) :- x ex:unknownPrefixLess y`, Options{}); err == nil {
		t.Fatal("undeclared prefix must fail")
	}
	// Timeout propagates.
	_, err := db.AnswerContext(context.Background(), `q(x) :- x rdf:type ex:Publication`, Options{
		Strategy: RefUCQ, Prefixes: exPrefix, Timeout: time.Nanosecond,
	})
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
}

// TestBudgetIsPerCall: calls answering through one DB each bound their own
// evaluation — concurrently, and for an Explain after a capped answer.
func TestBudgetIsPerCall(t *testing.T) {
	db := openBook(t)
	const all = `q(x, p, y) :- x p y`
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		capped := i%2 == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := Options{Strategy: Sat}
			if capped {
				opt.MaxRows = 1
			}
			res, err := db.AnswerContext(context.Background(), all, opt)
			switch {
			case capped && !errors.Is(err, exec.ErrBudgetExceeded):
				t.Errorf("MaxRows 1: got %v, want a budget error", err)
			case !capped && (err != nil || res.Len() < 2):
				t.Errorf("no MaxRows: got %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := db.AnswerContext(context.Background(), all, Options{Strategy: Sat, MaxRows: 1}); !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("MaxRows 1: got %v, want a budget error", err)
	}
	if _, err := db.Explain(all, Options{}); err != nil {
		t.Fatalf("Explain after a MaxRows 1 answer: %v", err)
	}
}

func TestExplain(t *testing.T) {
	db := openBook(t)
	out, err := db.Explain(`q(x) :- x rdf:type ex:Publication`, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UCQ reformulation", "GCov cover", "answers:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestStatsSummary(t *testing.T) {
	db := openBook(t)
	out := db.StatsSummary(3)
	if !strings.Contains(out, "triples:") {
		t.Fatalf("stats summary: %s", out)
	}
	if db.CollectStats().N() == 0 {
		t.Fatal("stats empty")
	}
}

func TestOpenLUBMSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("LUBM generation")
	}
	db, err := OpenLUBM(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if db.TripleCount() < 10000 {
		t.Fatalf("LUBM(1) too small: %d", db.TripleCount())
	}
	res, err := db.AnswerContext(context.Background(), `q(x) :- x rdf:type <http://swat.cse.lehigh.edu/onto/univ-bench.owl#Student>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no students found")
	}
}

func TestResultRowsSortedDeterministic(t *testing.T) {
	db := openBook(t)
	a, err := db.AnswerContext(context.Background(), `q(x, p, y) :- x p y`, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.AnswerContext(context.Background(), `q(x, p, y) :- x p y`, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic answers")
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatal("row order not deterministic")
			}
		}
	}
}

func TestSnapshotAPI(t *testing.T) {
	db := openBook(t)
	path := filepath.Join(t.TempDir(), "book.snap")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TripleCount() != db.TripleCount() {
		t.Fatal("snapshot round trip lost triples")
	}
	// Answers match across the round trip.
	const qt = `q(x) :- x rdf:type ex:Person`
	a, err := db.AnswerContext(context.Background(), qt, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.AnswerContext(context.Background(), qt, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("answers differ after snapshot: %d vs %d", a.Len(), b.Len())
	}
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Fatal("missing snapshot must error")
	}
}

func TestWhyProvenance(t *testing.T) {
	db := openBook(t)
	out, err := db.Why(`q(x) :- x rdf:type ex:Person`, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	// _:b1 is a Person only through writtenBy's range: the explanation
	// must show a derived witness and no explicit one.
	if !strings.Contains(out, "derived") || strings.Contains(out, "explicit via") {
		t.Fatalf("why output:\n%s", out)
	}
	if !strings.Contains(out, "_:b1") {
		t.Fatalf("answer missing:\n%s", out)
	}
	// An explicitly typed answer is marked explicit.
	out2, err := db.Why(`q(x) :- x rdf:type ex:Book`, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "explicit via") {
		t.Fatalf("explicit witness missing:\n%s", out2)
	}
}

func TestAnswerSPARQLUnion(t *testing.T) {
	db := openBook(t)
	res, err := db.AnswerContext(context.Background(), `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE {
  { ?x a ex:Person } UNION { ?x a ex:Publication }
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("union answers = %d, want 2 (implicit Person + Publication)", res.Len())
	}
	// Sat agrees.
	satRes, err := db.AnswerContext(context.Background(), `
PREFIX ex: <http://example.org/>
SELECT ?x WHERE {
  { ?x a ex:Person } UNION { ?x a ex:Publication }
}`, Options{Strategy: Sat})
	if err != nil {
		t.Fatal(err)
	}
	if satRes.Len() != res.Len() {
		t.Fatalf("union: sat %d != gcov %d", satRes.Len(), res.Len())
	}
}

func TestPublicUpdateAPI(t *testing.T) {
	db := openBook(t)
	if err := db.Insert(`
@prefix ex: <http://example.org/> .
ex:doi2 ex:writtenBy ex:cortazar .
`); err != nil {
		t.Fatal(err)
	}
	res, err := db.AnswerContext(context.Background(), `q(x) :- x rdf:type ex:Person`, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("after insert: %d persons, want 2", res.Len())
	}
	removed, err := db.Delete(`
@prefix ex: <http://example.org/> .
ex:doi2 ex:writtenBy ex:cortazar .
`)
	if err != nil || removed != 1 {
		t.Fatalf("delete: removed=%d err=%v", removed, err)
	}
	res2, err := db.AnswerContext(context.Background(), `q(x) :- x rdf:type ex:Person`, Options{Prefixes: exPrefix})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 1 {
		t.Fatalf("after delete: %d persons, want 1", res2.Len())
	}
}
