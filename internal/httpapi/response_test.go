package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// hostileTerms are objects whose text a JSON writer must escape, or must
// keep as it is: quotes and backslashes (which the N-Triples form of a
// literal escapes once and JSON once more), control characters, invalid
// UTF-8 (U+FFFD once decoded, whichever escaping applied first), language
// and datatype literals, blank nodes, HTML-special characters and U+2028 —
// in literals and in IRIs, whose N-Triples form has no quote of its own.
var hostileTerms = []rdf.Term{
	rdf.NewLiteral(`say "hi" \ back`),
	rdf.NewLiteral("tab\there\nline\rret\x01\x1f\x7f"),
	rdf.NewLiteral("bad \xff\xfe utf8"),
	rdf.NewLiteral("bad \xff and \"quoted\""),
	rdf.NewLiteral(""),
	rdf.NewLangLiteral("héllo", "fr"),
	rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
	rdf.NewBlank("b1"),
	rdf.NewIRI("http://example.org/<&>\u2028\u2029é"),
	rdf.NewIRI("http://example.org/bad\xc3"),
	rdf.NewIRI(`http://example.org/back\slash`),
	rdf.NewIRI(`http://example.org/"quoted"`),
	rdf.NewIRI("http://example.org/ctl\x01\x7f"),
}

// hostileRelation holds one row (subject, object) per hostile term.
func hostileRelation(d *dict.Dict) *exec.Relation {
	rel := exec.NewRelation([]string{"s", "o"})
	for _, t := range hostileTerms {
		rel.Append([]dict.ID{d.EncodeIRI("http://example.org/s"), d.Encode(t)})
	}
	return rel
}

// hostileRows are the N-Triples forms of hostileRelation's rows, read off
// the source terms, not the dictionary.
func hostileRows() [][]string {
	rows := make([][]string, len(hostileTerms))
	for i, t := range hostileTerms {
		rows[i] = []string{rdf.NewIRI("http://example.org/s").String(), t.String()}
	}
	return rows
}

// encodingJSON is what encoding/json makes of resp with rows as resp.Rows,
// written by writeJSON.
func encodingJSON(resp QueryResponse, rows [][]string) []byte {
	resp.Rows = [][]string{}
	for _, row := range rows {
		if row == nil {
			row = []string{}
		}
		resp.Rows = append(resp.Rows, row)
	}
	if resp.Columns == nil {
		resp.Columns = []string{}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

func decodeAny(t *testing.T, body []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	return v
}

// intField is benchmark/stack.go's reader of a top-level integer field.
func intField(body []byte, field string) (int, bool) {
	pat := "\n  \"" + field + "\": "
	i := bytes.LastIndex(body, []byte(pat))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(pat):]
	end := bytes.IndexAny(rest, ",\n")
	if end < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

// What writeQueryResponse writes decodes to what encoding/json writes for the
// same QueryResponse, everything from "total" on is byte for byte the
// encoder's, and intField reads the total off it.
func TestQueryResponseDecodesAsEncodingJSON(t *testing.T) {
	d := dict.New()
	rel := hostileRelation(d)
	zeroWidth := exec.NewRelation(nil)
	zeroWidth.Append(nil)
	root := trace.New(0).StartSpan("query")
	root.Child("scan").SetFloat("est_rows", 2.5)
	root.End()
	explain := &ExplainJSON{Mode: ExplainAnalyze, Text: trace.Render(root, trace.RenderOptions{Timing: true}), Tree: trace.ToJSON(root)}
	meta := MetaJSON{Strategy: "ref-gcov", Cover: "{0}", EstimatedCost: 12.75, CachedPlan: true}
	// full sets every field, with a cover the encoder escapes for HTML.
	full := MetaJSON{Strategy: "ref-gcov", Cover: "{<0>&\u2028\u2029}", ReformulationCQs: 7, ParseMillis: 0.5, PrepMillis: 1e-7,
		EvalMillis: 3, CachedPlan: true, EstimatedCost: 123456789.125, CachedFragments: 2, QueueWaitMillis: 0.25, AdmissionWeight: 3}
	for i, f := range reflect.VisibleFields(reflect.TypeOf(full)) {
		if reflect.ValueOf(full).Field(i).IsZero() && f.Name != "SerializeMillis" && f.Name != "TotalMillis" {
			t.Fatalf("MetaJSON.%s is zero in the full case: the meta writer is not checked on it", f.Name)
		}
	}
	tiny, huge := meta, meta
	tiny.EstimatedCost, huge.EstimatedCost = 1e-7, 1e21
	tiny.Cover = "{<0>&}" // HTML-escaped, with no byte from 0x80
	cases := []struct {
		name    string
		rel     *exec.Relation
		n       int
		rows    [][]string
		explain *ExplainJSON
		meta    MetaJSON
	}{
		{"hostile", rel, rel.Len(), hostileRows(), nil, meta},
		{"truncated", rel, 2, hostileRows()[:2], nil, meta},
		{"empty", exec.NewRelation([]string{"s", "o"}), 0, nil, nil, meta},
		{"zero-width", zeroWidth, 1, [][]string{nil}, nil, meta},
		{"no relation", nil, 0, nil, nil, meta},
		{"explain analyze", rel, rel.Len(), hostileRows(), explain, meta},
		{"every meta field", rel, 1, hostileRows()[:1], nil, full},
		{"estimate 1e-7", rel, 1, hostileRows()[:1], nil, tiny},
		{"estimate 1e21", rel, 1, hostileRows()[:1], nil, huge},
	}
	for _, c := range cases {
		resp := QueryResponse{RequestID: "req-1", Explain: c.explain, Meta: c.meta}
		if c.rel != nil {
			resp.Columns, resp.Total = c.rel.Vars, c.rel.Len()
			resp.Truncated = c.n < c.rel.Len()
		}
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, &resp, d, c.rel, c.n, time.Now(), time.Now())
		got := rec.Body.Bytes()
		want := encodingJSON(resp, c.rows) // resp as stamped by the writer
		if !reflect.DeepEqual(decodeAny(t, got), decodeAny(t, want)) {
			t.Errorf("%s: decodes differently from encoding/json:\n%s\nwant\n%s", c.name, got, want)
		}
		if !utf8.Valid(got) {
			t.Errorf("%s: invalid UTF-8:\n%q", c.name, got)
		}
		tail := []byte("\n  \"total\": ")
		if g, w := got[bytes.Index(got, tail):], want[bytes.Index(want, tail):]; !bytes.Equal(g, w) {
			t.Errorf("%s: total, explain and meta differ from the encoder's:\n%s\nwant\n%s", c.name, g, w)
		}
		if total, ok := intField(got, "total"); !ok || total != resp.Total {
			t.Errorf("%s: intField reads total %d, %v; want %d", c.name, total, ok, resp.Total)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
	}
}

// An estimate no JSON number holds writes nothing, as the encoder does.
func TestQueryResponseNaNEstimateWritesNothing(t *testing.T) {
	d := dict.New()
	rel := hostileRelation(d)
	for _, cost := range []float64{math.NaN(), math.Inf(1)} {
		resp := QueryResponse{Columns: rel.Vars, Total: rel.Len(), Meta: MetaJSON{Strategy: "ref-gcov", EstimatedCost: cost}}
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, &resp, d, rel, rel.Len(), time.Now(), time.Now())
		if want := encodingJSON(resp, hostileRows()); rec.Body.Len() != 0 || len(want) != 0 {
			t.Errorf("estimate %v: wrote %q, the encoder %q", cost, rec.Body, want)
		}
	}
}

// appendJSONString writes valid UTF-8 that decodes to what encoding/json
// decodes from its own encoding of the same bytes, for random byte strings
// mixing plain text with quotes, backslashes, control characters,
// multi-byte runes and invalid UTF-8 at any position.
func TestAppendJSONStringDecodesAsEncodingJSON(t *testing.T) {
	pieces := []string{"a", "http://ex.org/x", `"`, `\`, "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "€", "😀", "\xff", "\xc3", "\xe2\x82", "<&>"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var s []byte
		for n := r.Intn(8); n > 0; n-- {
			s = append(s, pieces[r.Intn(len(pieces))]...)
		}
		out := appendJSONString([]byte("x"), s)[1:]
		if !utf8.Valid(out) {
			t.Fatalf("%q: writes invalid UTF-8 %q", s, out)
		}
		var got, want string
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		enc, _ := json.Marshal(string(s))
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%q: decodes to %q, want %q", s, got, want)
		}
	}
}

// The W3C document decodes to what encoding/json writes for SPARQLResults
// built binding by binding.
func TestSPARQLJSONDecodesAsEncodingJSON(t *testing.T) {
	d := dict.New()
	rel := hostileRelation(d)
	for _, n := range []int{rel.Len(), 1, 0} {
		doc := SPARQLResults{Head: SPARQLHead{Vars: rel.Vars}, Results: SPARQLResSet{Bindings: []map[string]SPARQLTerm{}}}
		for i := 0; i < n; i++ {
			b := map[string]SPARQLTerm{}
			for j, id := range rel.Row(i) {
				term := d.Decode(id)
				st := SPARQLTerm{Type: "literal", Value: term.Value, Lang: term.Lang, Datatype: term.Datatype}
				switch term.Kind {
				case rdf.IRI:
					st.Type = "uri"
				case rdf.Blank:
					st.Type = "bnode"
				}
				b[rel.Vars[j]] = st
			}
			doc.Results.Bindings = append(doc.Results.Bindings, b)
		}
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeSPARQLJSON(rec, d, rel, n)
		if got := rec.Body.Bytes(); !reflect.DeepEqual(decodeAny(t, got), decodeAny(t, want)) {
			t.Errorf("%d rows decode differently from encoding/json:\n%s\nwant\n%s", n, got, want)
		}
	}
}

// Through both API versions, plain and under EXPLAIN ANALYZE, a query over
// the hostile terms answers each term's N-Triples form, in answer order.
func TestHostileTermsRoundTripBothAPIs(t *testing.T) {
	triples := make([]rdf.Triple, len(hostileTerms))
	for i, o := range hostileTerms {
		triples[i] = rdf.NewTriple(rdf.NewIRI("http://example.org/s"+strconv.Itoa(i)), rdf.NewIRI("http://example.org/p"), o)
	}
	g, err := graph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g, map[string]string{"ex": "http://example.org/"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	text := `q(x, y) :- x ex:p y`
	q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ex": "http://example.org/"}, text)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := srv.Engine().AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	ans.Rows.SortFirst(ans.Rows.Len())
	var want [][]string
	for i := 0; i < ans.Rows.Len(); i++ {
		var row []string
		for _, id := range ans.Rows.Row(i) {
			row = append(row, g.Dict().Decode(id).String())
		}
		want = append(want, row)
	}
	for _, path := range []string{"/query", "/v1/query"} {
		for _, explain := range []string{"", "analyze"} {
			var resp QueryResponse
			if code := getJSON(t, ts.URL+path+"?q="+url.QueryEscape(text)+"&explain="+explain, &resp); code != http.StatusOK {
				t.Fatalf("%s explain=%q: status %d", path, explain, code)
			}
			// Decoding replaced invalid UTF-8 by U+FFFD; so does a round trip
			// of the expected strings through encoding/json.
			raw, _ := json.Marshal(want)
			var wantDecoded [][]string
			if err := json.Unmarshal(raw, &wantDecoded); err != nil {
				t.Fatal(err)
			}
			if resp.Total != len(hostileTerms) || !reflect.DeepEqual(resp.Rows, wantDecoded) {
				t.Errorf("%s explain=%q: rows %q, want %q", path, explain, resp.Rows, wantDecoded)
			}
			if (explain != "") != (resp.Explain != nil) {
				t.Errorf("%s explain=%q: explain %+v", path, explain, resp.Explain)
			}
		}
	}
}
