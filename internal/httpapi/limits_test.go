package httpapi

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
)

// serve sends one request straight to the handler, on the test's goroutine.
func serve(srv *Server, method, path, id, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func bookServer(t *testing.T) *Server {
	t.Helper()
	g, err := graph.ParseString(bookGraph)
	if err != nil {
		t.Fatal(err)
	}
	return New(g, map[string]string{"ex": "http://example.org/"})
}

// padTo pads a JSON object with spaces before its closing brace to n bytes.
func padTo(t *testing.T, doc string, n int) string {
	t.Helper()
	if len(doc) > n {
		t.Fatalf("%d-byte document over %d", len(doc), n)
	}
	return doc[:len(doc)-1] + strings.Repeat(" ", n-len(doc)) + "}"
}

// A body one byte over its limit answers 413 with the envelope and reaches
// nothing: an update's terms stay out of the dictionary. A body exactly at
// its limit is answered.
func TestBodyLimits(t *testing.T) {
	defer func(q, u int64) { maxQueryBody, maxUpdateBody = q, u }(maxQueryBody, maxUpdateBody)
	maxQueryBody, maxUpdateBody = 96, 160
	srv := bookServer(t)
	d := srv.Engine().Graph().Dict()
	tooLarge := func(rec *httptest.ResponseRecorder) bool {
		var env v1Error
		return rec.Code == http.StatusRequestEntityTooLarge &&
			json.Unmarshal(rec.Body.Bytes(), &env) == nil && env.Error.Code == CodeInvalidRequest
	}

	query := `{"query":"q(x) :- x rdf:type ex:Book"}`
	for _, path := range []string{"/v1/query", "/v1/explain"} {
		if rec := serve(srv, http.MethodPost, path, "", padTo(t, query, int(maxQueryBody)+1)); !tooLarge(rec) {
			t.Errorf("%s, one byte over: %d %s", path, rec.Code, rec.Body)
		}
		if rec := serve(srv, http.MethodPost, path, "", padTo(t, query, int(maxQueryBody))); rec.Code != http.StatusOK {
			t.Errorf("%s, at the limit: %d %s", path, rec.Code, rec.Body)
		}
	}

	iri := "http://example.org/big"
	doc, err := json.Marshal(UpdateRequest{Insert: "<" + iri + "> <http://example.org/p> <http://example.org/o> .\n"})
	if err != nil {
		t.Fatal(err)
	}
	terms := d.Len()
	if rec := serve(srv, http.MethodPost, "/v1/update", "", padTo(t, string(doc), int(maxUpdateBody)+1)); !tooLarge(rec) {
		t.Fatalf("update one byte over: %d %s", rec.Code, rec.Body)
	}
	if _, ok := d.LookupIRI(iri); ok || d.Len() != terms {
		t.Fatalf("an update over the limit grew the dictionary from %d to %d terms", terms, d.Len())
	}
	rec := serve(srv, http.MethodPost, "/v1/update", "", padTo(t, string(doc), int(maxUpdateBody)))
	var resp UpdateResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Inserted != 1 {
		t.Fatalf("update at the limit: %d %s", rec.Code, rec.Body)
	}
	if _, ok := d.LookupIRI(iri); !ok {
		t.Fatal("the update at the limit did not reach the dictionary")
	}
}

// The query log keeps its lines: the keys in their order, requestId first,
// and their values, for an answered and a failed query.
func TestQueryLogLines(t *testing.T) {
	srv := bookServer(t)
	var buf bytes.Buffer
	srv.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	text := "q(x) :- x rdf:type ex:Book"
	for _, c := range []struct {
		id, strategy string
		status       int
	}{{"req-ok", "ref-gcov", http.StatusOK}, {"req-bad", "no-such-strategy", http.StatusUnprocessableEntity}} {
		body, err := json.Marshal(QueryRequest{Query: text, Strategy: c.strategy})
		if err != nil {
			t.Fatal(err)
		}
		if rec := serve(srv, http.MethodPost, "/v1/query", c.id, string(body)); rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.id, rec.Code, c.status, rec.Body)
		}
	}
	want := [][]any{
		{"time", nil, "level", "INFO", "msg", "query answered", "requestId", "req-ok", "strategy", "ref-gcov", "millis", nil, "rows", 1.0, "query", text},
		{"time", nil, "level", "ERROR", "msg", "query failed", "requestId", "req-bad", "strategy", "no-such-strategy", "millis", nil, "rows", 0.0, "query", text,
			"error", `engine: unknown strategy "no-such-strategy"`},
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d log lines, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, line := range lines {
		got := keysAndValues(t, line)
		if len(got) != len(want[i]) {
			t.Fatalf("line %d: %v, want %v", i, got, want[i])
		}
		for j, w := range want[i] {
			switch {
			case w == nil && j == 1: // the time
				if _, ok := got[j].(string); !ok {
					t.Errorf("line %d: time %v", i, got[j])
				}
			case w == nil: // the millis
				if ms, ok := got[j].(float64); !ok || ms < 0 {
					t.Errorf("line %d: millis %v", i, got[j])
				}
			case got[j] != w:
				t.Errorf("line %d, item %d: %v, want %v\n%s", i, j, got[j], w, line)
			}
		}
	}
}

// keysAndValues reads a flat JSON object's keys and values in their order.
func keysAndValues(t *testing.T, line string) []any {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%q: %v %v", line, tok, err)
	}
	var out []any
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		out = append(out, key, v)
	}
	return out
}
