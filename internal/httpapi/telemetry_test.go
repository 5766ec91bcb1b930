package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/trace"
)

// Tests for the workload-telemetry layer: /v1/stats workload section,
// /v1/debug/costmodel, per-strategy SLO series on /metrics, slowlog
// outcomes and the durable journal wired through the full HTTP path.

const telemetryQuery = `q(x) :- x rdf:type ex:Book`

// bookTestGraph parses the shared book fixture.
func bookTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newServerFor serves an already-configured Server.
func newServerFor(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func runQueries(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	q := url.QueryEscape(telemetryQuery)
	for i := 0; i < n; i++ {
		var resp QueryResponse
		if code := getJSON(t, ts.URL+"/v1/query?q="+q, &resp); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if resp.Total != 1 {
			t.Fatalf("query %d: total = %d, want 1", i, resp.Total)
		}
	}
}

func TestWorkloadStatsEndpoint(t *testing.T) {
	ts, _ := newTestServerAndAPI(t)
	runQueries(t, ts, 5)

	var stats struct {
		Workload WorkloadStats `json:"workload"`
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	w := stats.Workload
	if w.Summary.TotalQueries != 5 {
		t.Fatalf("totalQueries = %d, want 5", w.Summary.TotalQueries)
	}
	if w.Summary.DistinctQueries != 1 {
		t.Fatalf("distinctQueries = %d, want 1", w.Summary.DistinctQueries)
	}
	if len(w.TopQueries) != 1 {
		t.Fatalf("topQueries = %d entries, want 1", len(w.TopQueries))
	}
	top := w.TopQueries[0]
	if top.Sig == "" || top.Count != 5 || top.Query == "" {
		t.Fatalf("top query = %+v", top)
	}
	if len(top.Strategies) == 0 {
		t.Fatalf("top query carries no strategies: %+v", top)
	}
	// The same query re-parsed under renamed variables folds into the
	// same canonical signature.
	q2 := url.QueryEscape(`q(zzz) :- zzz rdf:type ex:Book`)
	var resp QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q="+q2, &resp); code != http.StatusOK {
		t.Fatalf("renamed query status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if got := stats.Workload.Summary.DistinctQueries; got != 1 {
		t.Fatalf("distinctQueries after rename = %d, want 1 (canonical sig)", got)
	}
	if got := stats.Workload.TopQueries[0].Count; got != 6 {
		t.Fatalf("top count after rename = %d, want 6", got)
	}
}

func TestCostModelEndpoint(t *testing.T) {
	ts, _ := newTestServerAndAPI(t)
	runQueries(t, ts, 3)

	var resp CostModelResponse
	if code := getJSON(t, ts.URL+"/v1/debug/costmodel", &resp); code != http.StatusOK {
		t.Fatalf("costmodel status %d", code)
	}
	if len(resp.Operators) == 0 {
		t.Fatal("no operator calibration after traced queries")
	}
	if resp.Worst == "" {
		t.Fatal("worst operator not named")
	}
	for _, op := range resp.Operators {
		if op.Op == "" || op.Samples <= 0 {
			t.Fatalf("bad calibration row: %+v", op)
		}
		if op.P50 < 1 || op.P95 < op.P50-1e-9 || op.Mean < 1 {
			t.Fatalf("q-error stats out of range (q-error >= 1): %+v", op)
		}
	}
	// Sorted worst-calibrated first.
	for i := 1; i < len(resp.Operators); i++ {
		if resp.Operators[i-1].P95 < resp.Operators[i].P95 {
			t.Fatalf("operators not sorted by p95 desc: %+v", resp.Operators)
		}
	}
}

func TestSLOSeriesOnMetrics(t *testing.T) {
	ts, _ := newTestServerAndAPI(t)
	runQueries(t, ts, 2)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`slo_good_total{strategy="`,
		`slo_burn_rate_5m{strategy="`,
		`slo_burn_rate_1h{strategy="`,
		`qerror_count{op="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Fatal("/v1/metrics must not carry deprecation headers")
	}
}

func TestLegacyMetricsDeprecated(t *testing.T) {
	ts, _ := newTestServerAndAPI(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" {
		t.Fatal("legacy /metrics missing Deprecation header")
	}
	if succ := resp.Header.Get("Successor-Version"); succ != "/v1/metrics" {
		t.Fatalf("Successor-Version = %q, want /v1/metrics", succ)
	}
}

func TestSlowlogRecordsStrategyAndOutcome(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	srv.SlowQueryThreshold = time.Nanosecond // everything is slow
	runQueries(t, ts, 1)

	var slowlog SlowlogResponse
	if code := getJSON(t, ts.URL+"/v1/slowlog", &slowlog); code != http.StatusOK {
		t.Fatalf("slowlog status %d", code)
	}
	if len(slowlog.Entries) != 1 {
		t.Fatalf("slowlog entries = %d, want 1", len(slowlog.Entries))
	}
	e := slowlog.Entries[0]
	if e.Outcome != journal.OutcomeOK {
		t.Fatalf("outcome = %q, want %q", e.Outcome, journal.OutcomeOK)
	}
	if e.Strategy == "" {
		t.Fatal("slow entry carries no strategy")
	}
}

func TestJournalEndToEnd(t *testing.T) {
	g := bookTestGraph(t)
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jw, err := journal.New(journal.Config{Path: path, Metrics: srv.Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableJournal(jw)
	ts := newServerFor(t, srv)

	runQueries(t, ts, 3)
	// A parse error journals with an error outcome.
	var envelope v1Error
	if code := getJSON(t, ts.URL+"/v1/query?q="+url.QueryEscape("q(x :- broken"), &envelope); code != http.StatusBadRequest {
		t.Fatalf("broken query status %d", code)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	entries, stats, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated || stats.Corrupt != 0 {
		t.Fatalf("clean shutdown journal reported %+v", stats)
	}
	// Parse failures never reach finishQuery (no strategy ran), so only
	// the three answered queries are journaled.
	if len(entries) != 3 {
		t.Fatalf("journal entries = %d, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Outcome != journal.OutcomeOK {
			t.Fatalf("entry %d outcome = %q", i, e.Outcome)
		}
		if e.Sig == "" || e.Strategy == "" || e.RequestID == "" {
			t.Fatalf("entry %d missing identity fields: %+v", i, e)
		}
		if e.Query != telemetryQuery {
			t.Fatalf("entry %d query = %q", i, e.Query)
		}
		// The plan cache's view of the query: its shape (the class of
		// rdf:type selects rules and stays), and a hit after the first.
		if !strings.HasSuffix(e.Shape, "type> <http://example.org/Book>") || e.PlanCacheHit != (i > 0) {
			t.Fatalf("entry %d shape = %q, planCacheHit = %v", i, e.Shape, e.PlanCacheHit)
		}
		if e.Rows != 1 {
			t.Fatalf("entry %d rows = %d, want 1", i, e.Rows)
		}
		if e.TotalMillis <= 0 {
			t.Fatalf("entry %d totalMillis = %v", i, e.TotalMillis)
		}
		if len(e.Fragments) == 0 {
			t.Fatalf("entry %d has no fragment stats", i)
		}
		for _, f := range e.Fragments {
			if f.Sig == "" {
				t.Fatalf("entry %d fragment missing sig: %+v", i, f)
			}
		}
		if len(e.Operators) == 0 {
			t.Fatalf("entry %d has no operator est-vs-actual stats", i)
		}
	}
	// All three runs of the same query share one signature.
	if entries[0].Sig != entries[2].Sig {
		t.Fatalf("sig drift across identical queries: %q vs %q", entries[0].Sig, entries[2].Sig)
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters["journal.recorded"]; got != 3 {
		t.Fatalf("journal.recorded = %d, want 3", got)
	}
	if got := snap.Counters["journal.dropped"]; got != 0 {
		t.Fatalf("journal.dropped = %d, want 0", got)
	}
}

// A JUCQ's fragment spans come in plan order, not cover order: the journal
// matches each to its fragment by the span's idx.
func TestJournalMatchesFragmentsByIdx(t *testing.T) {
	root := trace.New(0).StartSpan("answer")
	for _, i := range []int64{1, 0} {
		f := root.Child("fragment")
		f.SetInt("idx", i)
		f.SetFloat("est_rows", float64(10+i))
		f.SetInt("rows", i)
		f.End()
	}
	root.End()
	e := journal.Entry{Fragments: []journal.FragmentStat{{Sig: "a", EstRows: -1, Rows: -1}, {Sig: "b", EstRows: -1, Rows: -1}}}
	(&Server{}).traceIntoEntry(root, &e)
	for i, f := range e.Fragments {
		if f.Rows != int64(i) || f.EstRows != float64(10+i) {
			t.Fatalf("fragment %d (%s) got rows %d, est %v", i, f.Sig, f.Rows, f.EstRows)
		}
	}
}
