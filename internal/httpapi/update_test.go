package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// --- boot gate ---------------------------------------------------------------

// Regression test: the server must not report ready while the graph is
// still loading. Before the boot gate, refserve bound its listener only
// after parsing finished, so probes either connection-refused (ambiguous)
// or — worse, under the old inline wiring — answered 200 over a
// half-loaded graph. Boot answers honestly: alive yes, ready no.
func TestBootGateNotReadyUntilRecovered(t *testing.T) {
	boot := NewBoot()
	ts := httptest.NewServer(boot)
	t.Cleanup(ts.Close)

	// Liveness holds during recovery on both route dialects.
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		var health map[string]string
		if code := getJSON(t, ts.URL+path, &health); code != http.StatusOK || health["status"] != "ok" {
			t.Fatalf("%s during load: code %d body %v", path, code, health)
		}
	}
	// Readiness — and every data route — must 503 with the loading code.
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Book`)
	for _, path := range []string{"/v1/readyz", "/v1/query?q=" + q, "/v1/stats", "/v1/dump"} {
		var envelope v1Error
		if code := getJSON(t, ts.URL+path, &envelope); code != http.StatusServiceUnavailable {
			t.Fatalf("%s during load: code %d, want 503", path, code)
		} else if envelope.Error.Code != CodeLoading {
			t.Fatalf("%s during load: code %q, want %q", path, envelope.Error.Code, CodeLoading)
		}
	}
	if boot.Server() != nil {
		t.Fatal("Server() non-nil before Ready")
	}

	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	boot.Ready(New(g, map[string]string{"ex": "http://example.org/"}))

	var ready map[string]string
	if code := getJSON(t, ts.URL+"/v1/readyz", &ready); code != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("readyz after Ready: code %d body %v", code, ready)
	}
	var compact struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/query?q="+q, &compact); code != http.StatusOK || compact.Total != 1 {
		t.Fatalf("query after Ready: code %d count %d", code, compact.Total)
	}
}

// --- /v1/update --------------------------------------------------------------

func TestUpdateInsertDeleteSchema(t *testing.T) {
	ts := newTestServer(t)
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Publication`)
	countOf := func() int {
		var compact struct {
			Total int `json:"total"`
		}
		if code := getJSON(t, ts.URL+"/v1/query?q="+q, &compact); code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
		return compact.Total
	}
	if n := countOf(); n != 1 {
		t.Fatalf("baseline count %d, want 1 (doi1 via subclass)", n)
	}

	// Insert a new Book: visible through RDFS reasoning immediately.
	var resp UpdateResponse
	code := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Insert: `<http://example.org/doi2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .`,
	}, &resp)
	if code != http.StatusOK || resp.Inserted != 1 {
		t.Fatalf("insert: code %d resp %+v", code, resp)
	}
	if resp.Durable {
		t.Fatal("durable=true without a durability manager")
	}
	if n := countOf(); n != 2 {
		t.Fatalf("count after insert %d, want 2", n)
	}

	// Delete it again; deleting a missing triple counts zero, not an error.
	code = postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Delete: `<http://example.org/doi2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .
<http://example.org/ghost> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .`,
	}, &resp)
	if code != http.StatusOK || resp.Deleted != 1 {
		t.Fatalf("delete: code %d resp %+v", code, resp)
	}
	if n := countOf(); n != 1 {
		t.Fatalf("count after delete %d, want 1", n)
	}

	// The write side says what it cost. Three versions were read: the boot's
	// was built from the graph, and on a graph this small one triple is past
	// the drift bound when the insert lands and within it when the delete
	// does. No write kept a closure to drop: the boot warm-up built the Sat
	// store but read no G∞, and the queries above did not read it either.
	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics?format=json", &m)
	if m.Counters["engine.derived.applied"] != 1 || m.Counters["engine.derived.rebuilt"] != 2 ||
		m.Counters["engine.closure.dropped"] != 0 || m.Histograms["engine.derived.apply_ms"].Count != 1 {
		t.Fatalf("write-side metrics: %+v, apply_ms %+v", m.Counters, m.Histograms["engine.derived.apply_ms"])
	}

	// A schema update re-encodes intervals; queries through the new
	// subclass edge must see old instances.
	code = postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		SchemaAdd: `<http://example.org/Publication> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/Work> .`,
	}, &resp)
	if code != http.StatusOK || resp.SchemaAdded != 1 {
		t.Fatalf("schemaAdd: code %d resp %+v", code, resp)
	}
	qWork := url.QueryEscape(`q(x) :- x rdf:type ex:Work`)
	var compact struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/v1/query?q="+qWork, &compact); code != http.StatusOK || compact.Total != 1 {
		t.Fatalf("query via new schema edge: code %d count %d", code, compact.Total)
	}
}

func TestUpdateErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name     string
		body     any
		wantCode ErrorCode
	}{
		{"empty update", UpdateRequest{}, CodeInvalidRequest},
		{"unknown field", map[string]string{"upsert": "x"}, CodeInvalidRequest},
		{"bad n-triples", UpdateRequest{Insert: "not a triple"}, CodeParseError},
	}
	for _, tc := range cases {
		var envelope v1Error
		code := postJSON(t, ts.URL+"/v1/update", tc.body, &envelope)
		if code != http.StatusBadRequest || envelope.Error.Code != tc.wantCode {
			t.Fatalf("%s: code %d envelope %+v, want 400 %q", tc.name, code, envelope, tc.wantCode)
		}
	}
	// Wrong method.
	var envelope v1Error
	if code := getJSON(t, ts.URL+"/v1/update", &envelope); code != http.StatusBadRequest {
		t.Fatalf("GET /v1/update: code %d, want 400", code)
	}
}

// --- durability wiring -------------------------------------------------------

// newDurableServer builds a server over an empty graph with durability in
// dir, mirroring refserve's boot sequence (Open → LoadGraph → Replay →
// New → EnableDurability); shards is the in-memory shard count.
func newDurableServer(t *testing.T, dir string, shards int) (*httptest.Server, *durable.Manager) {
	t.Helper()
	mgr, err := durable.Open(dir, durable.Options{SyncMode: durable.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	g, err := mgr.LoadGraph(nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(g)
	if _, err := mgr.Replay(eng, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(eng.Graph(), map[string]string{"ex": "http://example.org/"},
		metrics.NewRegistry(), Options{Shards: shards})
	srv.EnableDurability(mgr)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, mgr
}

// Updates acknowledged by /v1/update must survive a restart from the same
// data directory — the full WAL round trip through the HTTP layer.
func TestUpdateDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts, mgr := newDurableServer(t, dir, 1)

	var resp UpdateResponse
	code := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		SchemaAdd: `<http://example.org/Book> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/Work> .`,
		Insert: `<http://example.org/doi9> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .
<http://example.org/doi8> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .`,
	}, &resp)
	if code != http.StatusOK || !resp.Durable || resp.Inserted != 2 || resp.SchemaAdded != 1 {
		t.Fatalf("update: code %d resp %+v", code, resp)
	}
	code = postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Delete: `<http://example.org/doi8> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .`,
	}, &resp)
	if code != http.StatusOK || resp.Deleted != 1 {
		t.Fatalf("delete: code %d resp %+v", code, resp)
	}
	ts.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a second server over the same directory recovers the state.
	ts2, _ := newDurableServer(t, dir, 1)
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Work`)
	var compact struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts2.URL+"/v1/query?q="+q, &compact); code != http.StatusOK || compact.Total != 1 {
		t.Fatalf("recovered query: code %d count %d, want 1 (doi9 via replayed schema)", code, compact.Total)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// Without durability the endpoint refuses.
	ts := newTestServer(t)
	var envelope v1Error
	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint without durability: code %d, want 400", resp.StatusCode)
	}
	_ = envelope

	// With durability: insert, checkpoint, restart — the snapshot carries
	// the state even though the pre-checkpoint WAL segments are pruned.
	dir := t.TempDir()
	ts2, mgr := newDurableServer(t, dir, 1)
	var ur UpdateResponse
	code := postJSON(t, ts2.URL+"/v1/update", UpdateRequest{
		Insert: `<http://example.org/doi5> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .`,
	}, &ur)
	if code != http.StatusOK {
		t.Fatalf("insert: code %d", code)
	}
	var ck map[string]string
	resp, err = http.Post(ts2.URL+"/v1/admin/checkpoint", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	code = resp.StatusCode
	resp.Body.Close()
	if code != http.StatusOK {
		t.Fatalf("checkpoint: code %d", code)
	}
	_ = ck
	ts2.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	ts3, _ := newDurableServer(t, dir, 1)
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Book`)
	var compact struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, ts3.URL+"/v1/query?q="+q, &compact); code != http.StatusOK || compact.Total != 1 {
		t.Fatalf("recovered from snapshot: code %d count %d", code, compact.Total)
	}
}

// No reader waits behind a writer. A query is held mid-evaluation, parked in
// the admission gate's queue behind a held ticket; an update completes
// meanwhile; then a query that needs no gate slot (EXPLAIN), /v1/stats and
// /v1/dump answer from the new version while the first query is still held.
// Released, the first query answers from the version it loaded. Nothing here
// depends on timing: every step but the last runs while the gate is shut,
// and the timeout only turns a wait into a failure.
func TestNoReaderWaitsBehindAWriter(t *testing.T) {
	_, srv := newTestServerAndAPI(t)
	srv.EnableAdmission(admission.Config{MaxConcurrency: 1, QueueTimeout: time.Hour})
	blocker, err := srv.Gate().Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(blocker.Release) // lets a wedged request finish once the test has failed
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	// within runs f and fails the test, naming what, if f does not return
	// while the first query is held.
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not complete while a query was parked in the admission gate: it waits behind that reader", what)
		}
	}
	decode := func(what string, rec *httptest.ResponseRecorder, out any) {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	const pub = `{"query":"q(x) :- x rdf:type ex:Publication","strategy":"ref-ucq"`
	explain := func() *httptest.ResponseRecorder {
		return serve(http.MethodPost, "/v1/query", pub+`,"explain":"plan"}`)
	}
	stats := func() *httptest.ResponseRecorder { return serve(http.MethodGet, "/v1/stats", "") }
	var plan QueryResponse
	var st struct{ Triples int }
	decode("EXPLAIN", explain(), &plan)
	decode("/v1/stats", stats(), &st)
	cqsBefore, triplesBefore := plan.Meta.ReformulationCQs, st.Triples

	held := make(chan *httptest.ResponseRecorder, 1)
	go func() { held <- serve(http.MethodPost, "/v1/query", pub+`}`) }()
	within("the first query reaching the gate's queue", func() {
		for srv.Gate().QueueLen() == 0 {
			time.Sleep(time.Millisecond)
		}
	})

	// A new subclass of Publication, and an instance of it.
	var update, afterPlan, afterStats, dump *httptest.ResponseRecorder
	within("the update", func() {
		update = serve(http.MethodPost, "/v1/update", `{
			"schemaAdd": "<http://example.org/Article> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/Publication> .",
			"insert": "<http://example.org/doi2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Article> ."}`)
	})
	if update.Code != http.StatusOK {
		t.Fatalf("update: status %d: %s", update.Code, update.Body)
	}
	within("EXPLAIN", func() { afterPlan = explain() })
	within("/v1/stats", func() { afterStats = stats() })
	within("/v1/dump", func() { dump = serve(http.MethodGet, "/v1/dump", "") })
	decode("EXPLAIN after the update", afterPlan, &plan)
	decode("/v1/stats after the update", afterStats, &st)
	if plan.Meta.ReformulationCQs <= cqsBefore {
		t.Errorf("EXPLAIN after the update: %d reformulation CQs, want more than the %d before it", plan.Meta.ReformulationCQs, cqsBefore)
	}
	if st.Triples <= triplesBefore {
		t.Errorf("/v1/stats after the update: %d triples, want more than the %d before it", st.Triples, triplesBefore)
	}
	if !strings.Contains(dump.Body.String(), "<http://example.org/doi2>") {
		t.Errorf("/v1/dump after the update lacks the inserted triple:\n%s", dump.Body)
	}
	if srv.Gate().QueueLen() != 1 {
		t.Fatalf("the first query left the gate's queue before its release")
	}

	blocker.Release()
	var rec *httptest.ResponseRecorder
	within("the first query, released", func() { rec = <-held })
	var first QueryResponse
	decode("the first query", rec, &first)
	if first.Total != 1 || first.Meta.ReformulationCQs != cqsBefore {
		t.Fatalf("first query: %d rows from %d CQs, want the version it loaded: 1 row (doi1) from %d CQs", first.Total, first.Meta.ReformulationCQs, cqsBefore)
	}
}
