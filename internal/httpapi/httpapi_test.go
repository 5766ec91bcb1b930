package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/ntriples"
)

const bookGraph = `
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 a ex:Book .
ex:doi1 ex:writtenBy _:b1 .
_:b1 ex:hasName "J. L. Borges" .
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode
}

func TestRootAndHealth(t *testing.T) {
	ts := newTestServer(t)
	var root map[string]any
	if code := getJSON(t, ts.URL+"/", &root); code != http.StatusOK {
		t.Fatalf("root status %d", code)
	}
	if root["dataTriples"].(float64) != 3 {
		t.Fatalf("dataTriples = %v", root["dataTriples"])
	}
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("health: %d %v", code, health)
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d", resp.StatusCode)
	}
}

func TestQueryGet(t *testing.T) {
	ts := newTestServer(t)
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Person`)
	var resp QueryResponse
	if code := getJSON(t, ts.URL+"/query?q="+q, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Total != 1 || resp.Rows[0][0] != "_:b1" {
		t.Fatalf("answer: %+v", resp)
	}
	if resp.Meta.Strategy != "ref-gcov" {
		t.Fatalf("default strategy: %s", resp.Meta.Strategy)
	}
}

func TestQueryPostStrategies(t *testing.T) {
	ts := newTestServer(t)
	for _, strat := range []string{"sat", "ref-ucq", "ref-scq", "ref-gcov", "datalog"} {
		var resp QueryResponse
		code := postJSON(t, ts.URL+"/query", QueryRequest{
			Query:    `q(x) :- x rdf:type ex:Publication`,
			Strategy: strat,
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", strat, code)
		}
		if resp.Total != 1 {
			t.Fatalf("%s: %d answers, want 1", strat, resp.Total)
		}
	}
	// Incomplete strategy returns fewer answers on the Person query.
	var full, part QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Query: `q(x) :- x rdf:type ex:Person`}, &full)
	postJSON(t, ts.URL+"/query", QueryRequest{Query: `q(x) :- x rdf:type ex:Person`, Strategy: "ref-incomplete"}, &part)
	if full.Total != 1 || part.Total != 0 {
		t.Fatalf("completeness gap missing: %d vs %d", full.Total, part.Total)
	}
}

func TestQueryWithCover(t *testing.T) {
	ts := newTestServer(t)
	var resp QueryResponse
	code := postJSON(t, ts.URL+"/query", QueryRequest{
		Query:    `q(x, a) :- x rdf:type ex:Publication, x ex:hasAuthor a`,
		Strategy: "ref-jucq",
		Cover:    [][]int{{0}, {1}},
	}, &resp)
	if code != http.StatusOK || resp.Total != 1 {
		t.Fatalf("cover query: %d %+v", code, resp)
	}
	if resp.Meta.Cover == "" {
		t.Fatal("cover missing from meta")
	}
}

func TestQuerySPARQL(t *testing.T) {
	ts := newTestServer(t)
	var resp QueryResponse
	code := postJSON(t, ts.URL+"/query", QueryRequest{
		Query: `PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Publication }`,
	}, &resp)
	if code != http.StatusOK || resp.Total != 1 {
		t.Fatalf("sparql: %d %+v", code, resp)
	}
}

func TestQueryLimit(t *testing.T) {
	ts := newTestServer(t)
	var resp QueryResponse
	code := postJSON(t, ts.URL+"/query", QueryRequest{
		Query: `q(x, p, y) :- x p y`,
		Limit: 1,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Rows) != 1 || !resp.Truncated || resp.Total <= 1 {
		t.Fatalf("limit not applied: %+v", resp)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		req  QueryRequest
		code int
	}{
		{"empty", QueryRequest{}, http.StatusBadRequest},
		{"syntax", QueryRequest{Query: `not a query`}, http.StatusBadRequest},
		{"unknown-strategy", QueryRequest{Query: `q(x) :- x rdf:type ex:Book`, Strategy: "bogus"}, http.StatusUnprocessableEntity},
		{"bad-cover", QueryRequest{Query: `q(x) :- x rdf:type ex:Book, x ex:hasAuthor y`, Strategy: "ref-jucq", Cover: [][]int{{0}}}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var er v1Error
			if code := postJSON(t, ts.URL+"/query", c.req, &er); code != c.code {
				t.Fatalf("status %d, want %d (%+v)", code, c.code, er)
			}
			if er.Error.Code == "" || er.Error.Message == "" {
				t.Fatalf("error envelope incomplete: %+v", er)
			}
		})
	}
	// Method not allowed.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	// Unknown JSON fields rejected.
	r2, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"q(x) :- x rdf:type ex:Book","zzz":1}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", r2.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if stats["triples"].(float64) <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if _, ok := stats["topProperties"]; !ok {
		t.Fatal("topProperties missing")
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var resp ExplainResponse
	code := postJSON(t, ts.URL+"/explain", QueryRequest{
		Query: `q(x) :- x rdf:type ex:Publication, x ex:hasAuthor y`,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.UCQSize == 0 || resp.GCovCover == "" || len(resp.Explored) == 0 {
		t.Fatalf("explain incomplete: %+v", resp)
	}
	if resp.AnswerCount != 1 {
		t.Fatalf("answers %d, want 1", resp.AnswerCount)
	}
}

// /v1/explain answers through the engine like any ref-gcov query: it
// reuses the plan /v1/query cached for the same text and is metered as one.
func TestExplainSharesEnginePlanAndMetrics(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	req := QueryRequest{Query: `q(x) :- x rdf:type ex:Publication, x ex:hasAuthor y`, Strategy: "ref-gcov"}
	var ans QueryResponse
	if code := postJSON(t, ts.URL+"/v1/query", req, &ans); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	hits := srv.Metrics().Snapshot().Counters["plancache.hit"]
	var exp ExplainResponse
	if code := postJSON(t, ts.URL+"/v1/explain", QueryRequest{Query: req.Query}, &exp); code != http.StatusOK {
		t.Fatalf("explain status %d", code)
	}
	if exp.GCovCover != ans.Meta.Cover || exp.GCovCost != ans.Meta.EstimatedCost || exp.AnswerCount != ans.Total {
		t.Fatalf("explain (%s, %v, %d answers) disagrees with the query's meta %+v, total %d",
			exp.GCovCover, exp.GCovCost, exp.AnswerCount, ans.Meta, ans.Total)
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters["plancache.hit"]; got != hits+1 {
		t.Fatalf("plancache.hit = %d after explain, want %d: explain must reuse the query's plan", got, hits+1)
	}
	if got := snap.Counters["engine.queries.ref-gcov"]; got != 2 {
		t.Fatalf("engine.queries.ref-gcov = %d, want 2 (query + explain)", got)
	}
}

// The endpoint must survive concurrent mixed queries (engine caches are
// warmed at construction; the dictionary is mutex-protected).
func TestConcurrentQueries(t *testing.T) {
	ts := newTestServer(t)
	queries := []string{
		`q(x) :- x rdf:type ex:Person`,
		`q(x) :- x rdf:type ex:Publication`,
		`q(x, y) :- x ex:hasAuthor y`,
		`q(x) :- x rdf:type <http://example.org/Never%d>`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries[(w+i)%len(queries)]
				if strings.Contains(q, "%d") {
					q = strings.ReplaceAll(q, "%d", string(rune('0'+w)))
				}
				var resp QueryResponse
				buf, _ := json.Marshal(QueryRequest{Query: q})
				r, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				json.NewDecoder(r.Body).Decode(&resp)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDumpRoute(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-triples" {
		t.Fatalf("content type %q", ct)
	}
	ts2, err := ntriples.ParseAll(resp.Body)
	if err != nil {
		t.Fatalf("dump must parse back: %v", err)
	}
	// 3 data triples + closed schema triples.
	if len(ts2) < 7 {
		t.Fatalf("dump too small: %d triples", len(ts2))
	}
	g2, err := graph.FromTriples(ts2)
	if err != nil {
		t.Fatalf("dump must rebuild a graph: %v", err)
	}
	if g2.DataCount() != 3 {
		t.Fatalf("rebuilt data count %d, want 3", g2.DataCount())
	}
}

func TestQueryUnion(t *testing.T) {
	ts := newTestServer(t)
	var resp QueryResponse
	code := postJSON(t, ts.URL+"/query", QueryRequest{
		Query: `PREFIX ex: <http://example.org/>
SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Publication } }`,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, resp)
	}
	if resp.Total != 2 {
		t.Fatalf("union answers = %d, want 2", resp.Total)
	}
	// Broken union is a 400.
	var er v1Error
	code = postJSON(t, ts.URL+"/query", QueryRequest{
		Query: `SELECT ?x WHERE { { ?x a <http://C> } UNION { ?y a <http://D> } }`,
	}, &er)
	if code != http.StatusBadRequest || er.Error.Code != CodeParseError {
		t.Fatalf("unsafe union: status %d, envelope %+v", code, er)
	}
}

// A query is a union when it parses as one, not when its text contains the
// word: a single BGP naming <http://example.org/CreditUnion> or the literal
// "European Union" takes the single-BGP path — EXPLAIN explains it, ref-jucq
// takes its cover — and answers as the same query about another constant.
func TestQueryMentioningUnionIsNotAUnion(t *testing.T) {
	g, err := graph.ParseString(bookGraph + `
ex:acct1 ex:heldAt ex:CreditUnion .
ex:acct1 ex:heldAt ex:CreditCoop .
ex:acct1 ex:region "European Union" .
ex:acct1 ex:region "Europe" .
`)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(g, map[string]string{"ex": "http://example.org/"}))
	t.Cleanup(ts.Close)
	for _, c := range []struct{ with, without string }{
		{`SELECT ?x WHERE { ?x <http://example.org/heldAt> <http://example.org/CreditUnion> }`,
			`SELECT ?x WHERE { ?x <http://example.org/heldAt> <http://example.org/CreditCoop> }`},
		{`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:region "European Union" }`,
			`PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:region "Europe" }`},
	} {
		var plan QueryResponse
		if code := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: c.with, Explain: ExplainPlan}, &plan); code != http.StatusOK {
			t.Fatalf("explain=plan of %s: status %d", c.with, code)
		}
		var got, want QueryResponse
		for q, resp := range map[string]*QueryResponse{c.with: &got, c.without: &want} {
			req := QueryRequest{Query: q, Strategy: "ref-jucq", Cover: [][]int{{0}}}
			if code := postJSON(t, ts.URL+"/v1/query", req, resp); code != http.StatusOK {
				t.Fatalf("ref-jucq of %s: status %d", q, code)
			}
		}
		if got.Total != 1 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s answers %v, the same query without the word %v", c.with, got.Rows, want.Rows)
		}
	}
}
