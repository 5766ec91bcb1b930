package saturation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/testutil"
)

// TestMaintainedMatchesRecompute: after any random sequence of inserts and
// deletes, the maintained closure equals saturating the surviving data
// from scratch.
func TestMaintainedMatchesRecompute(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for seed := 0; seed < iters; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3000 + seed)))
			sc, err := testutil.RandomScenario(rng)
			if err != nil {
				t.Fatal(err)
			}
			g := sc.Graph
			m := NewMaintained(g)

			// Re-inserting a present triple and deleting an absent one are
			// both drawn: the graph filters them, the closure never sees them.
			pool := g.DecodedData()
			for step := 0; step < 20; step++ {
				if len(pool) == 0 {
					break
				}
				tr := pool[rng.Intn(len(pool))]
				if rng.Intn(2) == 0 {
					remove(t, g, m, tr)
				} else {
					insert(t, g, m, tr)
				}
			}

			// Recompute from scratch over the surviving data.
			surviving := g.DecodedData()
			var schemaTriples []rdf.Triple
			for _, tr := range sc.Raw {
				if rdf.IsSchemaTriple(tr) {
					schemaTriples = append(schemaTriples, tr)
				}
			}
			g2, err := graph.FromTriples(append(schemaTriples, surviving...))
			if err != nil {
				t.Fatal(err)
			}
			want := Saturate(g2)

			// Compare as decoded string sets (different dictionaries).
			toSet := func(d *dict.Dict, ts []dict.Triple) map[string]bool {
				out := map[string]bool{}
				for _, tr := range ts {
					out[d.DecodeTriple(tr).String()] = true
				}
				return out
			}
			got := toSet(g.Dict(), m.Triples())
			exp := toSet(g2.Dict(), want.Triples())
			if len(got) != len(exp) {
				t.Fatalf("maintained %d triples != recomputed %d", len(got), len(exp))
			}
			for k := range exp {
				if !got[k] {
					t.Fatalf("maintained closure missing %s", k)
				}
			}
		})
	}
}

func TestMaintainedDeleteRetractsDerived(t *testing.T) {
	g, err := graph.ParseString(`
@prefix ex: <http://example.org/> .
ex:writtenBy rdfs:range ex:Person .
ex:doi1 ex:writtenBy ex:borges .
ex:doi2 ex:writtenBy ex:borges .
`)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dict()
	m := NewMaintained(g)
	person := dict.Triple{
		S: mustID(t, d, rdf.NewIRI("http://example.org/borges")),
		P: d.EncodeIRI(rdf.TypeIRI),
		O: mustID(t, d, rdf.NewIRI("http://example.org/Person")),
	}
	if !m.Contains(person) {
		t.Fatal("borges must be a Person while a writtenBy triple exists")
	}
	data := g.DecodedData()
	// Delete one of the two derivations: still a Person.
	remove(t, g, m, data[0])
	if !m.Contains(person) {
		t.Fatal("one derivation remains; Person must persist")
	}
	// Delete the second: retracted.
	remove(t, g, m, data[1])
	if m.Contains(person) {
		t.Fatal("no derivation remains; Person must be retracted")
	}
	if m.Result().DataTriples != 0 {
		t.Fatalf("explicit count %d, want 0", m.Result().DataTriples)
	}
}

func TestMaintainedIdempotentOps(t *testing.T) {
	g, err := graph.ParseString(`
@prefix ex: <http://example.org/> .
ex:p rdfs:domain ex:C .
ex:a ex:p ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintained(g)
	data := g.DecodedData()
	before := len(m.Triples())
	if added := insert(t, g, m, data...); len(added) != 0 { // duplicate insert
		t.Fatalf("duplicate insert reported %v as added", added)
	}
	if len(m.Triples()) != before {
		t.Fatal("duplicate insert changed the closure")
	}
	if removed := remove(t, g, m, data...); len(removed) != len(data) {
		t.Fatalf("removed %v, want all of %v", removed, data)
	}
	if removed := remove(t, g, m, data...); len(removed) != 0 { // double delete
		t.Fatalf("double delete reported %v as removed", removed)
	}
	if got := len(m.Triples()); got != len(g.Schema().Triples()) {
		t.Fatalf("after full delete only schema should remain, got %d triples", got)
	}
	if m.Result().DataTriples != 0 {
		t.Fatalf("explicit count %d, want 0", m.Result().DataTriples)
	}
}

// The closure is the one of the D it was last advanced against: a write to
// the graph shows in it once it is folded in, not before.
func TestMaintainedKeepsTheDItWasAdvancedAgainst(t *testing.T) {
	g, err := graph.ParseString(`
@prefix ex: <http://example.org/> .
ex:p rdfs:domain ex:C .
ex:a ex:p ex:b .
`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaintained(g)
	before := m.Result()
	c := rdf.NewIRI("http://example.org/c")
	added, err := g.AddData([]rdf.Triple{rdf.NewTriple(c, rdf.NewIRI("http://example.org/p"), rdf.NewIRI("http://example.org/d"))})
	if err != nil {
		t.Fatal(err)
	}
	cType := g.Dict().EncodeTriple(rdf.NewTriple(c, rdf.Type, rdf.NewIRI("http://example.org/C")))
	if got := m.Result(); !slices.Equal(got.Triples(), before.Triples()) || got.DataTriples != 1 || m.Contains(added[0]) || m.Contains(cType) {
		t.Fatalf("an unfolded write shows in the closure: %d triples, %d explicit, was %d and 1", len(got.Triples()), got.DataTriples, len(before.Triples()))
	}
	m.Insert(added)
	if m.Result().DataTriples != 2 || !m.Contains(added[0]) || !m.Contains(cType) {
		t.Fatalf("the folded write is missing: %d explicit", m.Result().DataTriples)
	}
}

func TestMaintainedExplicitTripleAlsoDerived(t *testing.T) {
	// The type triple is both explicit and derivable via the domain; it
	// must survive deleting either source alone.
	g, err := graph.ParseString(`
@prefix ex: <http://example.org/> .
ex:p rdfs:domain ex:C .
ex:a ex:p ex:b .
ex:a rdf:type ex:C .
`)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dict()
	m := NewMaintained(g)
	typeTriple := dict.Triple{
		S: mustID(t, d, rdf.NewIRI("http://example.org/a")),
		P: d.EncodeIRI(rdf.TypeIRI),
		O: mustID(t, d, rdf.NewIRI("http://example.org/C")),
	}
	// Delete the explicit type assertion: domain derivation remains.
	remove(t, g, m, d.DecodeTriple(typeTriple))
	if !m.Contains(typeTriple) {
		t.Fatal("type triple still derivable via the domain constraint")
	}
	// Delete the property triple too: gone.
	propTriple := dict.Triple{
		S: typeTriple.S,
		P: mustID(t, d, rdf.NewIRI("http://example.org/p")),
		O: mustID(t, d, rdf.NewIRI("http://example.org/b")),
	}
	remove(t, g, m, d.DecodeTriple(propTriple))
	if m.Contains(typeTriple) {
		t.Fatal("type triple must be retracted with its last derivation")
	}
}

// insert and remove apply an update the way the engine does: the graph
// decides what actually changed, the closure counts exactly that.
func insert(t *testing.T, g *graph.Graph, m *Maintained, ts ...rdf.Triple) []dict.Triple {
	t.Helper()
	added, err := g.AddData(ts)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(added)
	return added
}

func remove(t *testing.T, g *graph.Graph, m *Maintained, ts ...rdf.Triple) []dict.Triple {
	t.Helper()
	removed, err := g.RemoveData(ts)
	if err != nil {
		t.Fatal(err)
	}
	m.Delete(removed)
	return removed
}

func mustID(t *testing.T, d *dict.Dict, term rdf.Term) dict.ID {
	t.Helper()
	id, ok := d.Lookup(term)
	if !ok {
		t.Fatalf("term %s not in dictionary", term)
	}
	return id
}
