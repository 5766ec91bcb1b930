// Updates: the §1 maintenance story, live. Sat must keep its materialized
// closure consistent as the data changes; this repository maintains it
// incrementally (counting-based), while Ref needs nothing at all — the
// trade-off is maintenance-per-update versus reformulation-per-query.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const base = `
@prefix ex: <http://example.org/> .
ex:Book      rdfs:subClassOf    ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain        ex:Book .
ex:writtenBy rdfs:range         ex:Person .
ex:doi1 ex:writtenBy ex:borges .
`

func main() {
	db, err := repro.OpenString(base)
	if err != nil {
		log.Fatal(err)
	}
	prefixes := map[string]string{"ex": "http://example.org/"}
	persons := func(tag string) {
		for _, s := range []repro.Strategy{repro.Sat, repro.RefGCov} {
			res, err := db.AnswerContext(context.Background(), `q(x) :- x rdf:type ex:Person`, repro.Options{Strategy: s, Prefixes: prefixes})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-22s %-8s -> %d person(s)", tag, s, res.Len())
			for i := 0; i < res.Len(); i++ {
				fmt.Printf("  %v", res.Row(i))
			}
			fmt.Println()
		}
	}

	persons("initial")

	// Two more books arrive; their authors become Persons implicitly.
	fmt.Println("\n+ insert: doi2 writtenBy cortazar; doi3 writtenBy borges")
	if err := db.Insert(`
@prefix ex: <http://example.org/> .
ex:doi2 ex:writtenBy ex:cortazar .
ex:doi3 ex:writtenBy ex:borges .
`); err != nil {
		log.Fatal(err)
	}
	persons("after insert")

	// Retract doi1: borges is still a Person through doi3 (one derivation
	// remains), demonstrating the counting-based retraction.
	fmt.Println("\n- delete: doi1 writtenBy borges")
	if _, err := db.Delete(`
@prefix ex: <http://example.org/> .
ex:doi1 ex:writtenBy ex:borges .
`); err != nil {
		log.Fatal(err)
	}
	persons("after first delete")

	// Retract doi3 too: the last derivation for borges disappears.
	fmt.Println("\n- delete: doi3 writtenBy borges")
	if _, err := db.Delete(`
@prefix ex: <http://example.org/> .
ex:doi3 ex:writtenBy ex:borges .
`); err != nil {
		log.Fatal(err)
	}
	persons("after second delete")

	fmt.Println("\nSat's closure was maintained incrementally through every change;")
	fmt.Println("Ref never materialized anything to maintain in the first place.")
}
