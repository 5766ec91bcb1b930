// Quickstart: the paper's running example (§3, Figure 2). A small book
// graph with four RDFS constraints; the query for authors of things
// connected to "1949" has no answer over the explicit triples, but
// reformulation (like saturation) finds "J. L. Borges".
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const data = `
@prefix ex: <http://example.org/> .

# RDF Schema constraints (Figure 2).
ex:Book      rdfs:subClassOf    ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain        ex:Book .
ex:writtenBy rdfs:range         ex:Person .

# Data triples.
ex:doi1 a ex:Book ;
        ex:writtenBy _:b1 ;
        ex:hasTitle "El Aleph" ;
        ex:publishedIn "1949" .
_:b1 ex:hasName "J. L. Borges" .
`

func main() {
	db, err := repro.OpenString(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d data triples, %s\n\n", db.TripleCount(), db.SchemaSummary())

	prefixes := map[string]string{"ex": "http://example.org/"}
	queryText := `q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3, x1 x4 "1949"`

	for _, s := range []repro.Strategy{repro.Sat, repro.RefUCQ, repro.RefGCov, repro.Dat} {
		res, err := db.AnswerContext(context.Background(), queryText, repro.Options{Strategy: s, Prefixes: prefixes})
		if err != nil {
			log.Fatalf("%s: %v", s, err)
		}
		fmt.Printf("%-12s -> %d answer(s) in %v", s, res.Len(), res.Meta.EvalTime)
		for i := 0; i < res.Len(); i++ {
			fmt.Printf("  %v", res.Row(i))
		}
		fmt.Println()
	}

	// The incomplete strategy of native RDF platforms misses the answer:
	// it ignores the domain/range constraints that type _:b1 as a Person
	// and connect writtenBy to hasAuthor... here it still finds the
	// author via the subproperty rule, but fails on this Person query:
	personQuery := `q(x) :- x rdf:type ex:Person`
	full, _ := db.AnswerContext(context.Background(), personQuery, repro.Options{Prefixes: prefixes})
	partial, _ := db.AnswerContext(context.Background(), personQuery, repro.Options{Strategy: repro.RefIncomplete, Prefixes: prefixes})
	fmt.Printf("\nWho is a Person? complete Ref: %d answer(s); incomplete Ref (Virtuoso-style): %d\n",
		full.Len(), partial.Len())

	// Inspect what reformulation did (demo step 3).
	out, err := db.Explain(queryText, repro.Options{Prefixes: prefixes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== explain ==")
	fmt.Print(out)
}
