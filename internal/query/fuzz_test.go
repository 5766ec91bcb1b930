package query

import (
	"testing"

	"repro/internal/dict"
)

// FuzzParseSPARQL: no panics; accepted queries are valid.
func FuzzParseSPARQL(f *testing.F) {
	seeds := []string{
		"",
		"SELECT ?x WHERE { ?x a <http://C> }",
		"PREFIX ub: <http://u#>\nSELECT ?x ?y WHERE { ?x ub:p ?y . ?y a ub:C }",
		"SELECT * WHERE { ?x <http://p> \"v\"@en ; <http://q> 42 , true }",
		"SELECT DISTINCT $x WHERE { $x rdf:type <http://C> . }",
		"SELECT ?x WHERE { ?x ?p ?o }",
		"SELECT ?x WHERE { ?x a <http://C> } trailing",
		"SELECT ?x WHERE { ?x <http://p> \"unterminated }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d := dict.New()
		q, err := ParseSPARQL(d, input)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted query is invalid: %v\ninput: %q", err, input)
		}
		// Formatting must not panic either.
		_ = FormatCQ(d, q)
		_ = q.CanonicalKey()
	})
}

// FuzzParseQuery drives the two entry points the HTTP layer and the demo
// binary feed raw user text into — ParseSPARQLUnion (the full "(unions
// of) BGP queries" dialect of §3) and ParseRuleWithPrefixes — and checks
// that nothing panics and every accepted query validates. Seeds are the
// experiment queries of EXPERIMENTS.md plus malformed variants.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"",
		// E1, the paper's 6-atom LUBM query shape.
		"q(x,u,y,v,z) :- x rdf:type u, y rdf:type v, x ub:mastersDegreeFrom z, y ub:undergraduateDegreeFrom z, x ub:advisor w, w ub:worksFor z",
		// The demo's GCov walkthrough query.
		"q(x, y) :- x rdf:type ub:Student, x ub:advisor y, y ub:worksFor d",
		"q(x) :- x rdf:type ub:UndergraduateStudent, x ub:takesCourse c",
		"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\nSELECT ?x WHERE { ?x rdf:type ub:Student }",
		"SELECT ?x WHERE { { ?x a <http://C> } UNION { ?x a <http://D> } }",
		"SELECT ?x ?y WHERE { { ?x <http://p> ?y } UNION { ?y <http://p> ?x } UNION { ?x a <http://C> } }",
		"SELECT ?x WHERE { { ?x a <http://C> } UNION { ?y a <http://D> } }",
		"SELECT ?x WHERE { { ?x a <http://C> } UNION }",
		"q(x) :- x ub:advisor",
		"q( :- x p y",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	prefixes := map[string]string{
		"ub": "http://swat.cse.lehigh.edu/onto/univ-bench.owl#",
	}
	f.Fuzz(func(t *testing.T, input string) {
		d := dict.New()
		if u, err := ParseSPARQLUnion(d, input); err == nil {
			for _, cq := range u.CQs {
				if err := cq.Validate(); err != nil {
					t.Fatalf("accepted union member is invalid: %v\ninput: %q", err, input)
				}
				_ = FormatCQ(d, cq)
				_ = cq.CanonicalKey()
			}
			u.Dedup()
			_ = u.Merged()
		}
		if q, err := ParseRuleWithPrefixes(d, prefixes, input); err == nil {
			if err := q.Validate(); err != nil {
				t.Fatalf("accepted rule is invalid: %v\ninput: %q", err, input)
			}
			_ = FormatCQ(d, q)
			_ = q.CanonicalKey()
		}
	})
}

// FuzzParseRule: no panics; accepted queries are valid.
func FuzzParseRule(f *testing.F) {
	seeds := []string{
		"",
		"q(x) :- x rdf:type <http://C>",
		"q(x, y) :- x <http://p> y, y <http://q> \"v\"",
		"q() :- x p y",
		"q(x) :- x rdf:type c, c rdfs:subClassOf <http://D>",
		"q(w) :- x p y",
		"q(x :- x p y",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d := dict.New()
		q, err := ParseRule(d, input)
		if err != nil {
			return
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted query is invalid: %v\ninput: %q", err, input)
		}
		_ = FormatCQ(d, q)
	})
}
