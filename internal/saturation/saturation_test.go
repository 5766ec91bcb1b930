package saturation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/testutil"
)

func mustGraph(t *testing.T, turtle string) *graph.Graph {
	t.Helper()
	g, err := graph.ParseString(turtle)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return g
}

const paperGraph = `
@prefix ex: <http://example.org/> .
ex:Book rdfs:subClassOf ex:Publication .
ex:writtenBy rdfs:subPropertyOf ex:hasAuthor .
ex:writtenBy rdfs:domain ex:Book .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 a ex:Book .
ex:doi1 ex:writtenBy _:b1 .
ex:doi1 ex:hasTitle "El Aleph" .
_:b1 ex:hasName "J. L. Borges" .
ex:doi1 ex:publishedIn "1949" .
`

// TestSaturatePaperFigure2 checks the exact implicit triples of the
// paper's Figure 2: doi1 hasAuthor _:b1, doi1 τ Publication (via Book),
// doi1 τ Book (via domain — already explicit), _:b1 τ Person (via range).
func TestSaturatePaperFigure2(t *testing.T) {
	g := mustGraph(t, paperGraph)
	d := g.Dict()
	res := Saturate(g)

	has := func(s, p, o rdf.Term) bool {
		st, ok1 := d.Lookup(s)
		pt, ok2 := d.Lookup(p)
		ot, ok3 := d.Lookup(o)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		want := dict.Triple{S: st, P: pt, O: ot}
		for _, tr := range res.Triples() {
			if tr == want {
				return true
			}
		}
		return false
	}
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://example.org/" + n) }
	if !has(ex("doi1"), ex("hasAuthor"), rdf.NewBlank("b1")) {
		t.Error("missing doi1 hasAuthor _:b1 (subproperty)")
	}
	if !has(ex("doi1"), rdf.Type, ex("Publication")) {
		t.Error("missing doi1 τ Publication (subclass)")
	}
	if !has(rdf.NewBlank("b1"), rdf.Type, ex("Person")) {
		t.Error("missing _:b1 τ Person (range)")
	}
	if res.Delta.Len() != 3 {
		t.Errorf("want exactly 3 derived triples, got %d", res.Delta.Len())
	}
	if res.DataTriples != 5 {
		t.Errorf("want 5 data triples, got %d", res.DataTriples)
	}
}

// TestSaturateMatchesNaiveRandom: the single-pass saturation equals the
// naive immediate-entailment fixpoint on random scenarios.
func TestSaturateMatchesNaiveRandom(t *testing.T) {
	iters := 80
	if testing.Short() {
		iters = 20
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatal(err)
			}
			g := sc.Graph
			fast := Saturate(g).Triples()
			raw := make([]dict.Triple, 0, len(sc.Raw))
			for _, tr := range sc.Raw {
				raw = append(raw, g.Dict().EncodeTriple(tr))
			}
			naive := NaiveSaturate(g.Dict(), raw)
			if len(fast) != len(naive) {
				t.Fatalf("fast %d triples != naive %d", len(fast), len(naive))
			}
			for i := range fast {
				if fast[i] != naive[i] {
					t.Fatalf("triple %d: fast %v != naive %v", i,
						g.Dict().DecodeTriple(fast[i]), g.Dict().DecodeTriple(naive[i]))
				}
			}
		})
	}
}

// TestSaturateIdempotent: saturating an already saturated triple set adds
// nothing (G∞∞ = G∞).
func TestSaturateIdempotent(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc, err := testutil.RandomScenario(rng)
		if err != nil {
			t.Fatal(err)
		}
		g := sc.Graph
		first := Saturate(g).Triples()
		again := NaiveSaturate(g.Dict(), first)
		if len(again) != len(first) {
			t.Fatalf("seed %d: re-saturation grew %d -> %d", seed, len(first), len(again))
		}
	}
}

// TestIncrementMatchesFullSaturation: incremental maintenance after a batch
// insert equals saturating from scratch.
func TestIncrementMatchesFullSaturation(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc, err := testutil.RandomScenario(rng)
		if err != nil {
			t.Fatal(err)
		}
		g := sc.Graph
		if g.DataCount() < 2 {
			continue
		}
		cut := g.DataCount() / 2
		// Build a graph with only the first half of the data by
		// re-encoding; schema comes from the same raw triples.
		var rawSchema, rawFirst, rawSecond []rdf.Triple
		for _, tr := range sc.Raw {
			if rdf.IsSchemaTriple(tr) {
				rawSchema = append(rawSchema, tr)
			}
		}
		decoded := g.DecodedData()
		rawFirst = decoded[:cut]
		rawSecond = decoded[cut:]
		gHalf, err := graph.FromTriples(append(append([]rdf.Triple(nil), rawSchema...), rawFirst...))
		if err != nil {
			t.Fatal(err)
		}
		prev := Saturate(gHalf)
		batch, err := gHalf.AddData(rawSecond)
		if err != nil {
			t.Fatal(err)
		}
		inc := Increment(gHalf, prev, batch)

		gFull, err := graph.FromTriples(append(append([]rdf.Triple(nil), rawSchema...), decoded...))
		if err != nil {
			t.Fatal(err)
		}
		full := Saturate(gFull)
		// Compare decoded triple sets (dictionaries differ).
		toSet := func(d *dict.Dict, ts []dict.Triple) map[string]bool {
			out := map[string]bool{}
			for _, tr := range ts {
				out[d.DecodeTriple(tr).String()] = true
			}
			return out
		}
		a := toSet(gHalf.Dict(), inc.Triples())
		b := toSet(gFull.Dict(), full.Triples())
		if len(a) != len(b) {
			t.Fatalf("seed %d: incremental %d triples != full %d", seed, len(a), len(b))
		}
		for k := range a {
			if !b[k] {
				t.Fatalf("seed %d: incremental has extra %s", seed, k)
			}
		}
	}
}

func TestSaturateEmptyGraph(t *testing.T) {
	g, err := graph.FromTriples(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Saturate(g)
	if len(res.Triples()) != 0 || res.Delta.Len() != 0 {
		t.Fatalf("empty graph saturation not empty: %+v", res)
	}
}

func TestSaturateSchemaOnlyGraph(t *testing.T) {
	g := mustGraph(t, `
@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
`)
	res := Saturate(g)
	// No data: G∞ is just the closed schema (3 subclass pairs).
	if res.Delta.Len() != 0 {
		t.Fatalf("derived %d, want 0", res.Delta.Len())
	}
	if len(res.Triples()) != 3 {
		t.Fatalf("want 3 closed schema triples, got %d", len(res.Triples()))
	}
}
