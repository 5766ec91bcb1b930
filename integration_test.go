package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/lubm"
	"repro/internal/ntriples"
	"repro/internal/query"
	"repro/internal/rdf"
)

// TestFullPipeline drives the whole system the way a downstream user
// would: generate a scenario, serialize it, load it through the public
// API, answer with every strategy, snapshot and reload, serve it over
// HTTP, and federate it with a second source — asserting answer-set
// agreement at every step.
func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	dir := t.TempDir()

	// 1. Generate a small LUBM dataset and write it as Turtle.
	profile := lubm.Mini()
	triples := append(lubm.OntologyTriples(), lubm.Generate(profile, 9)...)
	path := filepath.Join(dir, "lubm.ttl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ntriples.WriteTurtle(f, triples, map[string]string{"ub": lubm.NS}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// 2. Load through the public API and answer with every strategy.
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const qText = `q(x) :- x rdf:type <http://swat.cse.lehigh.edu/onto/univ-bench.owl#Employee>`
	counts := map[Strategy]int{}
	for _, s := range []Strategy{Sat, RefUCQ, RefSCQ, RefGCov, RefRange, Dat} {
		res, err := db.AnswerContext(context.Background(), qText, Options{Strategy: s, Timeout: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		counts[s] = res.Len()
	}
	want := counts[Sat]
	if want == 0 {
		t.Fatal("Employee query should have answers (faculty via worksFor domain)")
	}
	for s, n := range counts {
		if n != want {
			t.Fatalf("%s: %d answers, sat %d", s, n, want)
		}
	}

	// 3. Snapshot, reload, re-answer.
	snapPath := filepath.Join(dir, "lubm.snap")
	if err := db.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := db2.AnswerContext(context.Background(), qText, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != want {
		t.Fatalf("snapshot reload: %d answers, want %d", res2.Len(), want)
	}

	// 4. Serve over HTTP and query remotely.
	srv := httptest.NewServer(httpapi.New(db.Engine().Graph(), map[string]string{"ub": lubm.NS}))
	defer srv.Close()
	body, _ := json.Marshal(httpapi.QueryRequest{Query: qText})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr httpapi.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.Total != want {
		t.Fatalf("HTTP endpoint: %d answers, want %d", qr.Total, want)
	}

	// 5. Federate the endpoint with a second (disjoint) source and check
	// the union subsumes both.
	dblp, err := datasets.DBLP(datasets.Small, 5)
	if err != nil {
		t.Fatal(err)
	}
	med := federation.NewMediator(
		&federation.HTTPSource{SourceName: "lubm", BaseURL: srv.URL},
		&federation.GraphSource{SourceName: "dblp", Graph: dblp.Graph},
	)
	fedEng, err := med.EngineContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fq, err := query.ParseRuleWithPrefixes(fedEng.Graph().Dict(), map[string]string{"ub": lubm.NS}, qText)
	if err != nil {
		t.Fatal(err)
	}
	fedAns, err := fedEng.AnswerContext(context.Background(), fq, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if fedAns.Rows.Len() != want {
		t.Fatalf("federated: %d answers, want %d", fedAns.Rows.Len(), want)
	}
	// The DBLP person query also works over the merged graph.
	pq, err := query.ParseRuleWithPrefixes(fedEng.Graph().Dict(), dblp.Prefixes,
		`q(x) :- x rdf:type dblp:Person`)
	if err != nil {
		t.Fatal(err)
	}
	pAns, err := fedEng.AnswerContext(context.Background(), pq, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if pAns.Rows.Len() == 0 {
		t.Fatal("federated DBLP persons missing")
	}
}

// TestPipelineUpdateAndRequery: updates through the public API are visible
// across strategies and survive a snapshot round trip.
func TestPipelineUpdateAndRequery(t *testing.T) {
	db, err := OpenString(`
@prefix ex: <http://example.org/> .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 ex:writtenBy ex:a .
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(`
@prefix ex: <http://example.org/> .
ex:doi2 ex:writtenBy ex:b .
ex:doi3 ex:writtenBy ex:c .
`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(`
@prefix ex: <http://example.org/> .
ex:doi1 ex:writtenBy ex:a .
`); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "upd.snap")
	if err := db.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DB{db, back} {
		for _, s := range []Strategy{Sat, RefGCov, Dat} {
			res, err := d.AnswerContext(context.Background(), `q(x) :- x rdf:type ex:Person`,
				Options{Strategy: s, Prefixes: map[string]string{"ex": "http://example.org/"}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 2 { // b and c; a was retracted
				t.Fatalf("%s: %d persons, want 2", s, res.Len())
			}
		}
	}
}

// TestDatagenRoundTripThroughGraph: every built-in scenario's dump parses
// back into an equivalent graph (datagen's contract).
func TestDatagenRoundTripThroughGraph(t *testing.T) {
	scs, err := datasets.All(datasets.Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		d := sc.Graph.Dict()
		all := sc.Graph.AllTriples()
		var buf bytes.Buffer
		raw := make([]rdf.Triple, 0, len(all))
		for _, tr := range all {
			raw = append(raw, d.DecodeTriple(tr))
		}
		if err := ntriples.Write(&buf, raw); err != nil {
			t.Fatal(err)
		}
		back, err := graph.Parse(&buf)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if back.DataCount() != sc.Graph.DataCount() {
			t.Fatalf("%s: %d data triples after round trip, want %d",
				sc.Name, back.DataCount(), sc.Graph.DataCount())
		}
	}
}
