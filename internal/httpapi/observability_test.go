package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// /metrics must report live counters: serving queries changes them, a
// repeated ref-gcov query registers a plan-cache hit, and queries over
// the (tiny) threshold land in the slow-query log.
func TestMetricsEndpointLiveCounters(t *testing.T) {
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	srv.SlowQueryThreshold = time.Nanosecond // everything is "slow"
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var before MetricsResponse
	getJSON(t, ts.URL+"/metrics?format=json", &before)

	q := `q(x,y) :- x ex:hasAuthor z, z ex:hasName y`
	for i := 0; i < 2; i++ {
		var resp QueryResponse
		code := postJSON(t, ts.URL+"/query", QueryRequest{Query: q, Strategy: "ref-gcov"}, &resp)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if resp.Meta.TotalMillis <= 0 {
			t.Fatalf("query %d: totalMillis not set: %+v", i, resp.Meta)
		}
		if resp.Meta.ParseMillis < 0 || resp.Meta.SerializeMillis < 0 {
			t.Fatalf("query %d: negative timing breakdown: %+v", i, resp.Meta)
		}
		if i == 1 && !resp.Meta.CachedPlan {
			t.Fatalf("second ref-gcov query did not hit the plan cache: %+v", resp.Meta)
		}
	}

	var after MetricsResponse
	getJSON(t, ts.URL+"/metrics?format=json", &after)

	if got := after.Counters["engine.queries"] - before.Counters["engine.queries"]; got != 2 {
		t.Fatalf("engine.queries advanced by %d, want 2", got)
	}
	if got := after.Counters["http.requests./query"] - before.Counters["http.requests./query"]; got != 2 {
		t.Fatalf("http.requests./query advanced by %d, want 2", got)
	}
	if after.Counters["engine.plancache.misses"] < 1 || after.Counters["engine.plancache.hits"] < 1 {
		t.Fatalf("plan cache traffic not recorded: %+v", after.Counters)
	}
	if h := after.Histograms["engine.latency_ms.ref-gcov"]; h.Count < 2 {
		t.Fatalf("latency histogram count %d, want >= 2", h.Count)
	}
	if after.Counters["exec.rows_scanned"] == 0 {
		t.Fatalf("executor row counters not flushed: %+v", after.Counters)
	}
	if after.SlowQueriesTotal < 2 || len(after.SlowQueries) < 2 {
		t.Fatalf("slow-query log empty: total=%d entries=%d", after.SlowQueriesTotal, len(after.SlowQueries))
	}
	if e := after.SlowQueries[0]; e.Query == "" || e.Millis < 0 {
		t.Fatalf("malformed slow-query entry: %+v", e)
	}
}

// Negative threshold disables the slow-query log entirely.
func TestSlowQueryLogDisabled(t *testing.T) {
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	srv.SlowQueryThreshold = -1
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var resp QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Query: `q(x) :- x rdf:type ex:Book`}, &resp)
	var m MetricsResponse
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	if m.SlowQueriesTotal != 0 || len(m.SlowQueries) != 0 {
		t.Fatalf("slow-query log should be disabled: total=%d entries=%d", m.SlowQueriesTotal, len(m.SlowQueries))
	}
}

// Canceling an in-flight /query must stop the evaluation (recorded as a
// cancellation engine-side), not let it run to completion.
func TestQueryCancellation(t *testing.T) {
	// A graph where {x type A, y type B} is a 9M-row cross product: the
	// evaluation cannot finish between the server counting the request and
	// the client hanging up, however loaded the machine.
	var b strings.Builder
	b.WriteString("@prefix ex: <http://example.org/> .\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "ex:a%d a ex:A .\nex:b%d a ex:B .\n", i, i)
	}
	g, err := graph.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"query":"q(x,y) :- x rdf:type ex:A, y rdf:type ex:B","strategy":"ref-ucq"}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Cancel once the request is observably in flight, then wait for the
	// handler — which notices the disconnect asynchronously — to record it.
	waitCounter(t, srv, "http.requests./query")
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled request completed")
	}
	waitCounter(t, srv, "engine.canceled")
}

// waitCounter polls the server's registry until the counter is positive.
func waitCounter(t *testing.T, srv *Server, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Snapshot().Counters[name] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%s never recorded: %+v", name, srv.Metrics().Snapshot().Counters)
		}
		time.Sleep(time.Millisecond)
	}
}

// /dump honors client disconnects: a canceled request aborts the stream.
func TestDumpCancellation(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix ex: <http://example.org/> .\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "ex:s%d ex:p ex:o%d .\n", i, i)
	}
	g, err := graph.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/dump", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("canceled dump completed")
	}
}

// MetricsResponse must round-trip through JSON with the embedded
// snapshot's fields at the top level.
func TestMetricsResponseShape(t *testing.T) {
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var resp QueryResponse
	postJSON(t, ts.URL+"/query", QueryRequest{Query: `q(x) :- x rdf:type ex:Book`}, &resp)

	r, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "histograms", "slowQueryThresholdMillis", "slowQueries"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("/metrics missing %q: %v", key, keys(raw))
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
