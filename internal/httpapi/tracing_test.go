package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
)

func newObsServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

const traceTestQuery = `q(n) :- x rdf:type ex:Publication, x ex:hasAuthor y, y ex:hasName n`

// explain=analyze must execute the query and return a span tree where the
// executor operators carry estimated AND actual cardinalities, and the
// response must carry the request ID the client sent.
func TestExplainAnalyzeReturnsEstAndActualRows(t *testing.T) {
	_, ts := newObsServer(t)
	body, _ := json.Marshal(QueryRequest{Query: traceTestQuery, Strategy: "ref-gcov", Explain: ExplainAnalyze})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "client-chose-this")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(r.Body)
		t.Fatalf("status %d: %s", r.StatusCode, raw)
	}
	if got := r.Header.Get("X-Request-Id"); got != "client-chose-this" {
		t.Fatalf("X-Request-Id not echoed: %q", got)
	}
	var resp QueryResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "client-chose-this" {
		t.Fatalf("response requestId %q", resp.RequestID)
	}
	if resp.Total != 1 || len(resp.Rows) != 1 {
		t.Fatalf("analyze must still answer the query: %+v", resp)
	}
	if resp.Explain == nil || resp.Explain.Mode != ExplainAnalyze {
		t.Fatalf("missing analyze payload: %+v", resp.Explain)
	}
	tree := resp.Explain.Tree
	if tree == nil || tree.Name != "query" {
		t.Fatalf("trace root: %+v", tree)
	}
	if got := tree.Attrs["requestId"]; got != "client-chose-this" {
		t.Fatalf("trace root requestId = %v", got)
	}
	for _, name := range []string{"parse", "answer", "eval"} {
		if tree.Find(name) == nil {
			t.Fatalf("trace missing %s span:\n%s", name, resp.Explain.Text)
		}
	}
	scan := tree.Find("scan")
	if scan == nil {
		t.Fatalf("no scan operator in trace:\n%s", resp.Explain.Text)
	}
	if _, ok := scan.Attrs["est_rows"]; !ok {
		t.Fatalf("scan missing est_rows: %+v", scan.Attrs)
	}
	if _, ok := scan.Attrs["rows"]; !ok {
		t.Fatalf("scan missing rows: %+v", scan.Attrs)
	}
	// The human-readable rendering includes timings and both counts.
	if !strings.Contains(resp.Explain.Text, "est_rows=") || !strings.Contains(resp.Explain.Text, "rows=") {
		t.Fatalf("text rendering lacks cardinalities:\n%s", resp.Explain.Text)
	}
}

// explain=true (EXPLAIN without ANALYZE) must return an estimated plan and
// must NOT execute the query.
func TestExplainPlanDoesNotExecute(t *testing.T) {
	srv, ts := newObsServer(t)
	var resp QueryResponse
	code := postJSON(t, ts.URL+"/query", QueryRequest{Query: traceTestQuery, Strategy: "ref-scq", Explain: ExplainPlan}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Rows) != 0 || resp.Total != 0 {
		t.Fatalf("plan mode must not return rows: %+v", resp)
	}
	if resp.Explain == nil || resp.Explain.Mode != ExplainPlan {
		t.Fatalf("missing plan payload: %+v", resp.Explain)
	}
	if resp.Explain.Tree.Find("fragment") == nil {
		t.Fatalf("SCQ plan has no fragments:\n%s", resp.Explain.Text)
	}
	// The plan node says what the plan cache keyed the plan by, and that the
	// first plan of a shape is not a cached one.
	for _, attr := range []string{"shape=", "classes=", "cached=false"} {
		if !strings.Contains(resp.Explain.Text, attr) {
			t.Fatalf("plan node lacks %s:\n%s", attr, resp.Explain.Text)
		}
	}
	if resp.Meta.ReformulationCQs <= 0 {
		t.Fatalf("plan meta missing reformulation size: %+v", resp.Meta)
	}
	if got := srv.Metrics().Snapshot().Counters["exec.rows_scanned"]; got != 0 {
		t.Fatalf("EXPLAIN executed the query: %d rows scanned", got)
	}
	// The GET form works too.
	var getResp QueryResponse
	url := ts.URL + "/query?explain=plan&strategy=ref-gcov&q=" + "q(x)%20:-%20x%20rdf:type%20ex:Book"
	if code := getJSON(t, url, &getResp); code != http.StatusOK {
		t.Fatalf("GET explain status %d", code)
	}
	if getResp.Explain == nil || getResp.Explain.Mode != ExplainPlan {
		t.Fatalf("GET explain payload: %+v", getResp.Explain)
	}
}

// A request without X-Request-Id gets a generated one, echoed everywhere.
func TestRequestIDGenerated(t *testing.T) {
	_, ts := newObsServer(t)
	var resp QueryResponse
	buf, _ := json.Marshal(QueryRequest{Query: traceTestQuery})
	r, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	id := r.Header.Get("X-Request-Id")
	if len(id) != 16 {
		t.Fatalf("generated id %q, want 16 hex chars", id)
	}
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != id {
		t.Fatalf("body requestId %q != header %q", resp.RequestID, id)
	}
}

// Slow queries keep their request ID and full span tree, served by
// /slowlog.
func TestSlowlogCapturesTrace(t *testing.T) {
	srv, ts := newObsServer(t)
	srv.SlowQueryThreshold = time.Nanosecond // everything is "slow"
	var resp QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Query: traceTestQuery, Strategy: "ref-gcov"}, &resp)

	var slow SlowlogResponse
	if code := getJSON(t, ts.URL+"/v1/slowlog", &slow); code != http.StatusOK {
		t.Fatalf("slowlog status %d", code)
	}
	if len(slow.Entries) == 0 {
		t.Fatal("slowlog empty")
	}
	e := slow.Entries[0]
	if e.RequestID == "" {
		t.Fatalf("slowlog entry missing requestId: %+v", e)
	}
	if len(e.Trace) == 0 {
		t.Fatal("slowlog entry missing trace")
	}
	var tree trace.SpanJSON
	if err := json.Unmarshal(e.Trace, &tree); err != nil {
		t.Fatalf("trace not a span tree: %v", err)
	}
	if tree.Name != "query" || tree.Find("eval") == nil {
		t.Fatalf("slowlog trace incomplete: %+v", tree)
	}
}

// /metrics defaults to Prometheus text format with the proper content
// type; unknown formats are rejected.
func TestMetricsPrometheusFormat(t *testing.T) {
	_, ts := newObsServer(t)
	var resp QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Query: traceTestQuery, Strategy: "ref-gcov"}, &resp)

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE engine_queries_total counter",
		`engine_queries_total{strategy="ref-gcov"} 1`,
		"# TYPE engine_latency_ms histogram",
		`engine_latency_ms_bucket{strategy="ref-gcov",le="+Inf"} 1`,
		`http_requests_total{path="/query"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q\n%s", want, text)
		}
	}

	// JSON view still has an explicit content type.
	rj, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Body.Close()
	if ct := rj.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type %q", ct)
	}
	var bad v1Error
	if code := getJSON(t, ts.URL+"/metrics?format=xml", &bad); code != http.StatusBadRequest || bad.Error.Code != CodeInvalidRequest {
		t.Fatalf("bad format: status %d, envelope %+v", code, bad)
	}
}
