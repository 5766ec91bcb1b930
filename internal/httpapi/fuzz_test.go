package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rdf"
)

// FuzzUpdateBody: any /v1/update body, on a small server, answers 200, 400
// or 422 and never panics; after an accepted one the store holds exactly the
// graph's data and closure triples, and ref-gcov still answers what Sat does.
func FuzzUpdateBody(f *testing.F) {
	const (
		ex   = "http://example.org/"
		rdfs = "http://www.w3.org/2000/01/rdf-schema#"
	)
	f.Add([]byte(`{"insert":"<` + ex + `doi2> <` + ex + `writtenBy> <` + ex + `kafka> .\n"}`))
	f.Add([]byte(`{"delete":"<` + ex + `doi1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <` + ex + `Book> .\n"}`))
	f.Add([]byte(`{"schemaAdd":"<` + ex + `Person> <` + rdfs + `subClassOf> <` + ex + `Publication> .\n"}`))
	f.Add([]byte(`{"insert":"<` + ex + `doi2> <` + ex + `writtenBy> .\n"}`))
	f.Add([]byte(`{"insert":"<` + ex + `Novel> <` + rdfs + `subClassOf> <` + ex + `Book> .\n"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		g, err := graph.ParseString(bookGraph)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(g, map[string]string{"ex": ex})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		eng := srv.Engine()
		if g := eng.Graph(); g.DataCount()+len(g.Schema().Triples()) != eng.Store().Len() {
			t.Fatalf("%d data and %d closure triples, the store holds %d", g.DataCount(), len(g.Schema().Triples()), eng.Store().Len())
		}
		q, err := query.ParseRuleWithPrefixes(eng.Graph().Dict(), map[string]string{"ex": ex}, `q(x, y) :- x rdf:type ex:Publication, x ex:hasAuthor y`)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.AnswerContext(context.Background(), q, engine.Sat)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := eng.AnswerContext(context.Background(), q, engine.RefGCov); err != nil || !got.Rows.Equal(want.Rows) {
			t.Fatalf("ref-gcov %v (err %v), sat %v", got, err, want.Rows.Len())
		}
	})
}

// FuzzTermCell: any bytes, as the value of an IRI, a blank node, a plain, a
// language-tagged and a typed literal, round-trip through the dictionary;
// the row cell decodes, through encoding/json, to the term's N-Triples form
// and the SPARQL cell to its value, as encoding/json decodes them from its
// own encoding (which replaces invalid UTF-8 by U+FFFD).
func FuzzTermCell(f *testing.F) {
	for _, t := range hostileTerms {
		f.Add([]byte(t.Value))
	}
	f.Add([]byte("http://example.org/plain"))
	f.Fuzz(func(t *testing.T, value []byte) {
		v := string(value)
		terms := []rdf.Term{rdf.NewIRI(v), rdf.NewBlank(v), rdf.NewLiteral(v), rdf.NewLangLiteral(v, "en"), rdf.NewTypedLiteral(v, rdf.XSDInteger)}
		d := dict.New()
		rel := exec.NewRelation([]string{"i", "b", "l", "t", "d"})
		row := make([]dict.ID, len(terms))
		for i, term := range terms {
			row[i] = d.Encode(term)
		}
		rel.Append(row)
		for i, term := range terms {
			if got := d.Decode(row[i]); got != term {
				t.Fatalf("%q decodes to %q", term, got)
			}
			if id, ok := d.Lookup(term); !ok || id != row[i] {
				t.Fatalf("%q looks up to %d %v, want %d", term, id, ok, row[i])
			}
		}
		// asDecoded is what encoding/json decodes from its own encoding of s.
		asDecoded := func(s string) string {
			raw, _ := json.Marshal(s)
			var out string
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			return out
		}

		resp := QueryResponse{Columns: rel.Vars, Total: 1, Meta: MetaJSON{Strategy: "sat"}}
		rec := httptest.NewRecorder()
		(&Server{}).writeQueryResponse(rec, &resp, d, rel, 1, time.Now(), time.Now())
		var got QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got.Rows) != 1 {
			t.Fatalf("%v: %s", err, rec.Body)
		}
		rec = httptest.NewRecorder()
		writeSPARQLJSON(rec, d, rel, 1)
		var doc SPARQLResults
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || len(doc.Results.Bindings) != 1 {
			t.Fatalf("%v: %s", err, rec.Body)
		}
		for i, term := range terms {
			if cell, want := got.Rows[0][i], asDecoded(term.String()); cell != want {
				t.Errorf("row cell of %q decodes to %q, want %q", term, cell, want)
			}
			if b, want := doc.Results.Bindings[0][rel.Vars[i]], asDecoded(term.Value); b.Value != want || b.Lang != term.Lang || b.Datatype != term.Datatype {
				t.Errorf("SPARQL cell of %q decodes to %+v, want value %q", term, b, want)
			}
		}
	})
}
