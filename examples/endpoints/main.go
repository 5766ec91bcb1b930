// Endpoints: the §1 motivation for reformulation. Semantic Web data is
// split across independent RDF endpoints; a fact can live in one source and
// the constraint that gives it meaning in another, and sources cannot be
// (re)saturated — no write access, and the closure of the union is not
// computable source by source. The federation mediator fetches the
// explicit triples, merges them, and reformulates queries locally.
// (Against live endpoints, swap LocalSource for federation.HTTPSource
// pointed at a refserve /dump URL.)
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/ntriples"
	"repro/internal/query"
)

// Endpoint 1: a bibliographic dataset that publishes plain facts, no
// schema, not saturated.
const endpointBooks = `
@prefix ex: <http://example.org/> .
ex:doi1 ex:writtenBy ex:borges .
ex:doi2 ex:writtenBy ex:cortazar .
ex:doi2 ex:hasTitle "Rayuela" .
`

// Endpoint 2: a curated authority that publishes the ontology — and a few
// of its own facts.
const endpointOntology = `
@prefix ex: <http://example.org/> .
ex:Book      rdfs:subClassOf    ex:Publication .
ex:Novel     rdfs:subClassOf    ex:Book .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain        ex:Book .
ex:writtenBy rdfs:range         ex:Writer .
ex:Writer    rdfs:subClassOf    ex:Person .
ex:doi2 a ex:Novel .
`

func main() {
	books, err := ntriples.ParseString(endpointBooks)
	if err != nil {
		log.Fatal(err)
	}
	onto, err := ntriples.ParseString(endpointOntology)
	if err != nil {
		log.Fatal(err)
	}
	med := federation.NewMediator(
		&federation.LocalSource{SourceName: "books-endpoint", Triples: books},
		&federation.LocalSource{SourceName: "ontology-endpoint", Triples: onto},
	)
	e, err := med.EngineContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated %d sources (%v): %d merged data triples, %s\n\n",
		len(med.PerSource), med.PerSource, e.Graph().DataCount(), e.Graph().Schema())

	prefixes := map[string]string{"ex": "http://example.org/"}
	queries := []struct{ label, text string }{
		{"publications", `q(x) :- x rdf:type ex:Publication`},
		{"persons", `q(x) :- x rdf:type ex:Person`},
		{"authorship", `q(x, a) :- x ex:hasAuthor a`},
	}
	for _, item := range queries {
		q, err := query.ParseRuleWithPrefixes(e.Graph().Dict(), prefixes, item.text)
		if err != nil {
			log.Fatal(err)
		}
		ans, err := e.AnswerContext(context.Background(), q, engine.RefGCov)
		if err != nil {
			log.Fatal(err)
		}
		var vals []string
		d := e.Graph().Dict()
		for i := 0; i < ans.Rows.Len(); i++ {
			var parts []string
			for _, id := range ans.Rows.Row(i) {
				parts = append(parts, d.Decode(id).String())
			}
			vals = append(vals, strings.Join(parts, " / "))
		}
		fmt.Printf("%-12s (%d): %s\n", item.label, ans.Rows.Len(), strings.Join(vals, ", "))
	}

	// What Sat would have required: materializing the closure of the
	// merged graph — impossible to push back to the read-only endpoints,
	// and invalidated every time either source changes.
	sat := e.Saturation()
	fmt.Printf("\nSat would materialize %d extra triples into sources we cannot write to;\n", sat.Delta.Len())
	fmt.Println("Ref leaves both endpoints untouched and still returns the complete answers.")
}
