package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/graph"
)

// newTestServerAndAPI is newTestServer plus access to the Server for
// admission and drain configuration.
func newTestServerAndAPI(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func getWithAccept(t *testing.T, rawurl, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawurl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestV1SPARQLResultsNegotiation(t *testing.T) {
	ts, _ := newTestServerAndAPI(t)
	// x binds an IRI, z a blank node, y a literal — all three W3C term
	// shapes in one answer.
	q := url.QueryEscape(`q(x, z, y) :- x ex:hasAuthor z, z ex:hasName y`)
	resp := getWithAccept(t, ts.URL+"/v1/query?q="+q, "application/sparql-results+json;q=0.9, */*;q=0.1")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != sparqlResultsMIME {
		t.Fatalf("Content-Type = %q, want %q", ct, sparqlResultsMIME)
	}
	var doc SPARQLResults
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Head.Vars, []string{"x", "z", "y"}) {
		t.Fatalf("head.vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(doc.Results.Bindings))
	}
	b := doc.Results.Bindings[0]
	if b["x"].Type != "uri" || b["x"].Value != "http://example.org/doi1" {
		t.Fatalf("x binding = %+v", b["x"])
	}
	if b["z"].Type != "bnode" || b["z"].Value == "" {
		t.Fatalf("z binding = %+v", b["z"])
	}
	if b["y"].Type != "literal" || b["y"].Value != "J. L. Borges" {
		t.Fatalf("y binding = %+v", b["y"])
	}

	// Without the Accept header the compact JSON dialect answers.
	var compact QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q="+q, &compact); code != http.StatusOK {
		t.Fatalf("compact status %d", code)
	}
	if compact.Total != 1 || len(compact.Rows) != 1 {
		t.Fatalf("compact answer: %+v", compact)
	}
	// Legacy /query is the /v1 handler: it negotiates the same way.
	legacy := getWithAccept(t, ts.URL+"/query?q="+q, sparqlResultsMIME)
	if ct := legacy.Header.Get("Content-Type"); ct != sparqlResultsMIME {
		t.Fatalf("legacy Content-Type = %q, want %q", ct, sparqlResultsMIME)
	}
}

func TestV1SPARQLResultsTruncationHeader(t *testing.T) {
	ts, _ := newTestServerAndAPI(t)
	q := url.QueryEscape(`q(x, p, y) :- x p y`)
	resp := getWithAccept(t, ts.URL+"/v1/query?q="+q+"&limit=1", sparqlResultsMIME)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Truncated") != "true" {
		t.Fatal("missing X-Truncated header on a capped W3C answer")
	}
	var doc SPARQLResults
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results.Bindings) != 1 {
		t.Fatalf("bindings = %d, want 1 (limit)", len(doc.Results.Bindings))
	}
}

func TestV1ErrorEnvelope(t *testing.T) {
	ts, _ := newTestServerAndAPI(t)
	cases := []struct {
		name   string
		url    string
		status int
		code   ErrorCode
	}{
		{"parse error", "/v1/query?q=" + url.QueryEscape("q(x :- broken"), http.StatusBadRequest, CodeParseError},
		{"missing query", "/v1/query", http.StatusBadRequest, CodeInvalidRequest},
		{"bad limit", "/v1/query?q=" + url.QueryEscape("q(x) :- x rdf:type ex:Book") + "&limit=zap", http.StatusBadRequest, CodeInvalidRequest},
		{"unknown strategy", "/v1/query?strategy=nope&q=" + url.QueryEscape("q(x) :- x rdf:type ex:Book"), http.StatusUnprocessableEntity, CodeQueryError},
		{"explain parse error", "/v1/explain?q=" + url.QueryEscape("q(x :- broken"), http.StatusBadRequest, CodeParseError},
		{"bad metrics format", "/v1/metrics?format=bogus", http.StatusBadRequest, CodeInvalidRequest},
	}
	for _, c := range cases {
		var envelope v1Error
		code := getJSON(t, ts.URL+c.url, &envelope)
		if code != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, code, c.status)
		}
		if envelope.Error.Code != c.code {
			t.Fatalf("%s: code %q, want %q", c.name, envelope.Error.Code, c.code)
		}
		if envelope.Error.Message == "" {
			t.Fatalf("%s: empty message", c.name)
		}
	}
	// Legacy spellings answer errors in the same envelope, same status.
	var legacy v1Error
	if code := getJSON(t, ts.URL+"/query?q="+url.QueryEscape("q(x :- broken"), &legacy); code != http.StatusBadRequest {
		t.Fatalf("legacy status %d", code)
	}
	if legacy.Error.Code != CodeParseError || legacy.Error.Message == "" {
		t.Fatalf("legacy envelope %+v, want code %q", legacy, CodeParseError)
	}
}

// TestLegacyDeprecationHeaders is the deprecation matrix over every
// legacy route: still-served spellings answer 200 with the full
// deprecation header set (Deprecation + Sunset + Successor-Version +
// Link), sunset spellings answer 410 Gone with the successor pointer in
// the /v1 error envelope.
func TestLegacyDeprecationHeaders(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Book`)
	served := []string{"/query?q=" + q, "/healthz", "/stats", "/metrics", "/explain?q=" + q}
	for _, path := range served {
		resp := getWithAccept(t, ts.URL+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if dep := resp.Header.Get("Deprecation"); dep != "true" {
			t.Fatalf("%s: Deprecation = %q, want true", path, dep)
		}
		if sunset := resp.Header.Get("Sunset"); sunset != legacySunset {
			t.Fatalf("%s: Sunset = %q, want %q", path, sunset, legacySunset)
		}
		want := "/v1" + path[:indexOrLen(path, '?')]
		if succ := resp.Header.Get("Successor-Version"); succ != want {
			t.Fatalf("%s: Successor-Version = %q, want %q", path, succ, want)
		}
		if link := resp.Header.Get("Link"); link != fmt.Sprintf("<%s>; rel=%q", want, "successor-version") {
			t.Fatalf("%s: Link = %q", path, link)
		}
	}
	for _, path := range []string{"/slowlog", "/dump"} {
		resp := getWithAccept(t, ts.URL+path, "")
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, http.StatusGone)
		}
		if sunset := resp.Header.Get("Sunset"); sunset != legacySunset {
			t.Fatalf("%s: Sunset = %q, want %q", path, sunset, legacySunset)
		}
		want := "/v1" + path
		if link := resp.Header.Get("Link"); link != fmt.Sprintf("<%s>; rel=%q", want, "successor-version") {
			t.Fatalf("%s: Link = %q", path, link)
		}
		var envelope v1Error
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatalf("%s: decode envelope: %v", path, err)
		}
		resp.Body.Close()
		if envelope.Error.Code != CodeGone {
			t.Fatalf("%s: code %q, want %q", path, envelope.Error.Code, CodeGone)
		}
		if envelope.Error.Successor != want {
			t.Fatalf("%s: successor %q, want %q", path, envelope.Error.Successor, want)
		}
	}
	// /v1 routes carry no deprecation signaling.
	resp := getWithAccept(t, ts.URL+"/v1/healthz", "")
	if resp.Header.Get("Deprecation") != "" {
		t.Fatal("/v1/healthz must not be deprecated")
	}
	if resp.Header.Get("Sunset") != "" {
		t.Fatal("/v1/healthz must not carry a Sunset date")
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters["http.legacy_requests./query"]; got != 1 {
		t.Fatalf("http.legacy_requests./query = %d, want 1", got)
	}
	// Sunset routes still count as legacy traffic (removal stays
	// data-driven) and as errors.
	if got := snap.Counters["http.legacy_requests./dump"]; got != 1 {
		t.Fatalf("http.legacy_requests./dump = %d, want 1", got)
	}
}

func indexOrLen(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return len(s)
}

func TestReadyzVsHealthz(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	srv.Drain()
	var envelope v1Error
	if code := getJSON(t, ts.URL+"/v1/readyz", &envelope); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", code)
	}
	if envelope.Error.Code != CodeDraining {
		t.Fatalf("readyz code %q, want %q", envelope.Error.Code, CodeDraining)
	}
	// Liveness is about the process, not admission: still ok.
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", code)
	}
}

func TestDrainingShedsQueries(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	srv.EnableAdmission(admission.Config{MaxConcurrency: 4})
	srv.Drain()
	var envelope v1Error
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Book`)
	code := getJSON(t, ts.URL+"/v1/query?q="+q, &envelope)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if envelope.Error.Code != CodeDraining {
		t.Fatalf("code %q, want %q", envelope.Error.Code, CodeDraining)
	}
}

// A saturated gate with no queue sheds immediately: 429, Retry-After,
// overloaded code — on /v1/query and /v1/explain both.
func TestSaturatedGateSheds429(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	srv.EnableAdmission(admission.Config{MaxConcurrency: 1, QueueDepth: -1})
	blocker, err := srv.Gate().Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := url.QueryEscape(`q(x) :- x rdf:type ex:Book`)
	for _, path := range []string{"/v1/query?q=", "/v1/explain?q="} {
		resp := getWithAccept(t, ts.URL+path+q, "")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s: missing Retry-After", path)
		}
		var envelope v1Error
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			t.Fatal(err)
		}
		if envelope.Error.Code != CodeOverloaded {
			t.Fatalf("%s: code %q, want %q", path, envelope.Error.Code, CodeOverloaded)
		}
	}
	blocker.Release()
	var ok QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q="+q, &ok); code != http.StatusOK {
		t.Fatalf("after release: status %d", code)
	}
	if ok.Meta.AdmissionWeight < 1 {
		t.Fatalf("admitted answer missing admission weight: %+v", ok.Meta)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counters["admission.shed"] < 2 {
		t.Fatalf("admission.shed = %d, want >= 2", snap.Counters["admission.shed"])
	}
	if snap.Counters["admission.admitted"] < 1 {
		t.Fatal("admission.admitted missing")
	}
}

// The acceptance-criteria overload shape: N ≫ budget concurrent queries
// with a deep queue — every request admitted eventually, in-flight
// weight bounded, all answers identical to an unloaded run.
func TestOverloadBoundedAndConsistent(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	srv.EnableAdmission(admission.Config{
		MaxConcurrency: 2,
		QueueDepth:     64,
		QueueTimeout:   30 * time.Second,
	})
	q := url.QueryEscape(`q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3`)
	var want QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q="+q, &want); code != http.StatusOK {
		t.Fatalf("unloaded run: %d", code)
	}

	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/query?q=" + q)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var got QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				errs <- err
				return
			}
			if got.Total != want.Total || !reflect.DeepEqual(got.Rows, want.Rows) {
				errs <- fmt.Errorf("answer diverged under load: %+v", got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hw := srv.Gate().HighWater(); hw > 2 {
		t.Fatalf("in-flight weight high water %d exceeds budget 2", hw)
	}
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters["admission.admitted"]; got < n {
		t.Fatalf("admission.admitted = %d, want >= %d", got, n)
	}
}

// With a shallow queue and a short deadline, a burst must split into
// admitted answers (identical to unloaded) and 429/Retry-After sheds —
// never hangs, never corrupted rows.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	ts, srv := newTestServerAndAPI(t)
	srv.EnableAdmission(admission.Config{
		MaxConcurrency: 1,
		QueueDepth:     1,
		QueueTimeout:   30 * time.Millisecond,
	})
	q := url.QueryEscape(`q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3`)
	var want QueryResponse
	if code := getJSON(t, ts.URL+"/v1/query?q="+q, &want); code != http.StatusOK {
		t.Fatalf("unloaded run: %d", code)
	}

	const n = 32
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
		shed     int
	)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/query?q=" + q)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var got QueryResponse
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					errs <- fmt.Errorf("admitted answer corrupted: %+v", got.Rows)
					return
				}
				mu.Lock()
				admitted++
				mu.Unlock()
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					errs <- fmt.Errorf("429 without Retry-After")
					return
				}
				mu.Lock()
				shed++
				mu.Unlock()
			default:
				body, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if admitted == 0 {
		t.Fatal("no requests admitted")
	}
	if admitted+shed != n {
		t.Fatalf("admitted %d + shed %d != %d", admitted, shed, n)
	}
	if hw := srv.Gate().HighWater(); hw > 1 {
		t.Fatalf("in-flight weight high water %d exceeds budget 1", hw)
	}
}

func TestShutdownDrainsGate(t *testing.T) {
	_, srv := newTestServerAndAPI(t)
	srv.EnableAdmission(admission.Config{MaxConcurrency: 2})
	tkt, err := srv.Gate().Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before the in-flight ticket released: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	tkt.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after drain")
	}
	if !srv.Draining() {
		t.Fatal("server not marked draining")
	}
}
