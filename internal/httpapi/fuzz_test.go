package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
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
