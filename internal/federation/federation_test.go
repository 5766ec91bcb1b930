package federation

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/ntriples"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Endpoint A publishes facts, endpoint B the ontology: the implicit
// Person/Publication typing only exists over the union (§1).
const factsSource = `
@prefix ex: <http://example.org/> .
ex:doi1 ex:writtenBy ex:borges .
ex:doi2 ex:writtenBy ex:cortazar .
`

const ontologySource = `
@prefix ex: <http://example.org/> .
ex:Book      rdfs:subClassOf    ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain        ex:Book .
ex:writtenBy rdfs:range         ex:Person .
ex:doi2 a ex:Book .
`

func mustTriples(t *testing.T, text string) []rdf.Triple {
	t.Helper()
	ts, err := ntriples.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestMediatorCrossSourceEntailment(t *testing.T) {
	med := NewMediator(
		&LocalSource{SourceName: "facts", Triples: mustTriples(t, factsSource)},
		&LocalSource{SourceName: "ontology", Triples: mustTriples(t, ontologySource)},
	)
	e, err := med.EngineContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseRuleWithPrefixes(e.Graph().Dict(),
		map[string]string{"ex": "http://example.org/"}, `q(x) :- x rdf:type ex:Person`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows.Len() != 2 {
		t.Fatalf("cross-source entailment: want 2 Persons, got %d", ans.Rows.Len())
	}
	// Neither source alone entails them.
	for _, text := range []string{factsSource, ontologySource} {
		g, err := graph.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		solo := engine.New(g)
		qSolo, err := query.ParseRuleWithPrefixes(g.Dict(),
			map[string]string{"ex": "http://example.org/"}, `q(x) :- x rdf:type ex:Person`)
		if err != nil {
			t.Fatal(err)
		}
		a, err := solo.AnswerContext(context.Background(), qSolo, engine.RefGCov)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows.Len() != 0 {
			t.Fatalf("a single source should entail no Persons, got %d", a.Rows.Len())
		}
	}
	if med.PerSource["facts"] == 0 || med.PerSource["ontology"] == 0 {
		t.Fatalf("per-source accounting missing: %v", med.PerSource)
	}
}

func TestMediatorOverHTTP(t *testing.T) {
	mkEndpoint := func(text string) *httptest.Server {
		g, err := graph.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(httpapi.New(g, nil))
		t.Cleanup(srv.Close)
		return srv
	}
	a := mkEndpoint(factsSource)
	b := mkEndpoint(ontologySource)

	med := NewMediator(
		&HTTPSource{SourceName: "facts", BaseURL: a.URL},
		&HTTPSource{SourceName: "ontology", BaseURL: b.URL},
	)
	e, err := med.EngineContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseRuleWithPrefixes(e.Graph().Dict(),
		map[string]string{"ex": "http://example.org/"}, `q(x, y) :- x ex:hasAuthor y`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows.Len() != 2 {
		t.Fatalf("want 2 authorship rows over HTTP federation, got %d", ans.Rows.Len())
	}
}

func TestMediatorErrors(t *testing.T) {
	if _, err := NewMediator().BuildContext(context.Background()); err == nil {
		t.Fatal("empty mediator must error")
	}
	dup := NewMediator(
		&LocalSource{SourceName: "x", Triples: mustTriples(t, factsSource)},
		&LocalSource{SourceName: "x", Triples: mustTriples(t, ontologySource)},
	)
	if _, err := dup.BuildContext(context.Background()); err == nil {
		t.Fatal("duplicate source names must error")
	}
}

func TestHTTPSourceFailures(t *testing.T) {
	ctx := context.Background()
	down := &HTTPSource{SourceName: "down", BaseURL: "http://127.0.0.1:1"}
	if _, err := Collect(ctx, down, Pattern{}); err == nil {
		t.Fatal("unreachable endpoint must error")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer srv.Close()
	bad := &HTTPSource{SourceName: "bad", BaseURL: srv.URL}
	if _, err := Collect(ctx, bad, Pattern{}); err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("500 must surface: %v", err)
	}
	garbled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<broken ntriples"))
	}))
	defer garbled.Close()
	g := &HTTPSource{SourceName: "garbled", BaseURL: garbled.URL}
	if _, err := Collect(ctx, g, Pattern{}); err == nil {
		t.Fatal("garbled dump must error")
	}
}

func TestGraphSource(t *testing.T) {
	g, err := graph.ParseString(ontologySource)
	if err != nil {
		t.Fatal(err)
	}
	src := &GraphSource{SourceName: "g", Graph: g}
	ts, err := Collect(context.Background(), src, Pattern{})
	if err != nil {
		t.Fatal(err)
	}
	// The dump includes the closed schema (4 constraints) plus the data
	// triple.
	if len(ts) != 5 {
		t.Fatalf("dump size %d, want 5", len(ts))
	}
	// Merging a source with itself is idempotent.
	med := NewMediator(src)
	merged, err := med.BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if merged.DataCount() != g.DataCount() {
		t.Fatalf("self-merge changed data: %d vs %d", merged.DataCount(), g.DataCount())
	}
}

func TestMediatorConflictingSchema(t *testing.T) {
	// A source constraining a built-in must be rejected at merge time.
	bad := mustTriples(t, `<http://p> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> .`)
	med := NewMediator(&LocalSource{SourceName: "bad", Triples: bad})
	if _, err := med.BuildContext(context.Background()); err == nil {
		t.Fatal("invalid merged schema must error")
	}
}

// --- redesigned Source API ----------------------------------------------------

func ptr(t rdf.Term) *rdf.Term { return &t }

func TestScanPatternFiltersLocally(t *testing.T) {
	src := &LocalSource{SourceName: "facts", Triples: mustTriples(t, factsSource)}
	ctx := context.Background()
	all, err := Collect(ctx, src, Pattern{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("full scan returned %d triples, want 2", len(all))
	}
	one, err := Collect(ctx, src, Pattern{S: ptr(rdf.NewIRI("http://example.org/doi1"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].O.Value != "http://example.org/borges" {
		t.Fatalf("bound-subject scan: %v", one)
	}
	none, err := Collect(ctx, src, Pattern{P: ptr(rdf.NewIRI("http://example.org/nope"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("unmatched pattern returned %d triples", len(none))
	}
}

func TestScanPatternHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &LocalSource{SourceName: "facts", Triples: mustTriples(t, factsSource)}
	if _, err := src.ScanPattern(ctx, Pattern{}); err == nil {
		t.Fatal("canceled context must abort the scan")
	}
	gs := &GraphSource{SourceName: "g", Graph: mustGraph(t, ontologySource)}
	if _, err := gs.ScanPattern(ctx, Pattern{}); err == nil {
		t.Fatal("canceled context must abort the graph scan")
	}
}

func mustGraph(t *testing.T, text string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphSourceScanPattern(t *testing.T) {
	gs := &GraphSource{SourceName: "g", Graph: mustGraph(t, ontologySource)}
	ctx := context.Background()
	// A term the graph never saw matches nothing, without scanning.
	none, err := Collect(ctx, gs, Pattern{S: ptr(rdf.NewIRI("http://example.org/unknown"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("unknown term matched %d triples", len(none))
	}
	typed, err := Collect(ctx, gs, Pattern{S: ptr(rdf.NewIRI("http://example.org/doi2"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(typed) != 1 {
		t.Fatalf("doi2 scan returned %d triples, want 1", len(typed))
	}
	st, err := gs.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Triples != 5 {
		t.Fatalf("stats triples %d, want 5 (1 data + 4 schema)", st.Triples)
	}
}

func TestStoreSourceIndexBackedScan(t *testing.T) {
	g := mustGraph(t, factsSource)
	st := storage.Build(g.Dict(), g.AllTriples())
	src := &StoreSource{SourceName: "store", Dict: g.Dict(), Store: st}
	ctx := context.Background()
	all, err := Collect(ctx, src, Pattern{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(g.AllTriples()) {
		t.Fatalf("full scan %d, want %d", len(all), len(g.AllTriples()))
	}
	by, err := Collect(ctx, src, Pattern{O: ptr(rdf.NewIRI("http://example.org/cortazar"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(by) != 1 || by[0].S.Value != "http://example.org/doi2" {
		t.Fatalf("bound-object scan: %v", by)
	}
	stats, err := src.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Triples != st.Len() {
		t.Fatalf("stats %d != store len %d", stats.Triples, st.Len())
	}
}

// TestShardedStoreBehindMediator: each shard of a subject-hash-
// partitioned store is one federated source, and the mediator's
// scatter-gather merge reassembles the exact original graph — the
// in-process counterpart of merging remote endpoints.
func TestShardedStoreBehindMediator(t *testing.T) {
	g := mustGraph(t, factsSource+ontologySource)
	sharded := shard.Build(g.Dict(), g.D(), 3)
	srcs := make([]Source, sharded.NumShards())
	for i := range srcs {
		srcs[i] = &StoreSource{
			SourceName: fmt.Sprintf("shard-%d", i),
			Dict:       g.Dict(),
			Store:      sharded.ShardStore(i),
		}
	}
	merged, err := NewMediator(srcs...).BuildContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if merged.DataCount() != g.DataCount() {
		t.Fatalf("merged %d data triples, want %d", merged.DataCount(), g.DataCount())
	}
}

func TestHTTPSourceStats(t *testing.T) {
	g := mustGraph(t, factsSource)
	srv := httptest.NewServer(httpapi.New(g, nil))
	defer srv.Close()
	src := &HTTPSource{SourceName: "remote", BaseURL: srv.URL}
	st, err := src.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Triples != len(g.AllTriples()) {
		t.Fatalf("remote stats %d, want %d", st.Triples, len(g.AllTriples()))
	}
	got, err := Collect(context.Background(), src,
		Pattern{P: ptr(rdf.NewIRI("http://example.org/writtenBy"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("remote pattern scan returned %d, want 2", len(got))
	}
}
