// Package saturation implements Sat, the saturation-based query answering
// technique of the paper (§1, §3): it materializes the closure G∞ of an RDF
// graph by applying the RDFS immediate-entailment rules to fixpoint, so
// queries can then be evaluated directly against G∞, ignoring constraints.
//
// Because the schema is kept closed (see package schema) and may not
// constrain the built-in vocabulary, every entailed instance triple is a
// one-step consequence of exactly one data triple plus the closed schema.
// Saturate exploits this with a single pass over the data; NaiveSaturate is
// the straightforward fixpoint used as a cross-checking oracle in tests,
// and the same linearity is what makes incremental maintenance (Increment)
// proportional to the inserted batch.
package saturation

import (
	"slices"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Result is a saturation as two disjoint parts: the graph's D it was taken
// of, and Delta, the entailed triples D does not already hold. G∞ is their
// union.
type Result struct {
	// D is the graph's D — explicit data and closed schema — shared with the
	// graph and never written.
	D *storage.Run
	// Delta is G∞ \ D, sorted by (S,P,O): the triples saturation adds. A
	// store may hold it as its SPO run.
	Delta *storage.Run
	// DataTriples is the number of explicit instance triples.
	DataTriples int
}

// Triples returns G∞, D merged with Delta, as one fresh sorted slice.
func (r *Result) Triples() []dict.Triple {
	return storage.Merge(r.D.Triples(), r.Delta.Triples(), nil)
}

// Saturate computes G∞ for the graph in a single pass over D: a closure
// triple entails nothing more, since the schema may not constrain the
// constraint properties themselves.
func Saturate(g *graph.Graph) *Result {
	s := g.Schema()
	typeID := g.Dict().EncodeIRI(rdf.TypeIRI)
	var derived []dict.Triple
	g.D().Each(func(ts []dict.Triple) bool {
		for _, t := range ts {
			deriveOne(s, typeID, t, func(d dict.Triple) {
				derived = append(derived, d)
			})
		}
		return true
	})
	return result(g, g.D(), derived)
}

// result returns the saturation of d, a D of g, given the triples derived
// from it: sorted, deduplicated, and rid of those d holds by one merge walk
// of the two sorted sequences. derived is reused.
func result(g *graph.Graph, d *storage.Run, derived []dict.Triple) *Result {
	slices.SortFunc(derived, graph.CompareTriples)
	derived = slices.Compact(derived)
	delta, i := derived[:0], 0
	d.Each(func(ts []dict.Triple) bool {
		for _, t := range ts {
			for ; i < len(derived) && graph.CompareTriples(derived[i], t) < 0; i++ {
				delta = append(delta, derived[i])
			}
			if i < len(derived) && derived[i] == t {
				i++
			}
		}
		return i < len(derived)
	})
	delta = append(delta, derived[i:]...)
	return &Result{D: d, Delta: storage.NewRun(delta), DataTriples: d.Len() - len(g.Schema().Triples())}
}

// deriveOne emits every triple entailed (in any number of steps) by the
// single data triple t together with the closed schema.
func deriveOne(s *schema.Schema, typeID dict.ID, t dict.Triple, emit func(dict.Triple)) {
	if t.P == typeID {
		for _, sup := range s.SuperClasses(t.O) {
			emit(dict.Triple{S: t.S, P: typeID, O: sup})
		}
		return
	}
	for _, sup := range s.SuperProperties(t.P) {
		emit(dict.Triple{S: t.S, P: sup, O: t.O})
	}
	for _, c := range s.DomainClosure(t.P) {
		emit(dict.Triple{S: t.S, P: typeID, O: c})
	}
	for _, c := range s.RangeClosure(t.P) {
		emit(dict.Triple{S: t.O, P: typeID, O: c})
	}
}

// Increment extends a previous saturation of the graph by a batch of data
// triples that just became explicit in it, returning the new closure.
// Thanks to the linearity of RDFS instance rules (each entailed triple
// depends on one data triple plus the schema), only the batch needs
// deriving. This is the maintenance-cost comparison point of experiment E6.
func Increment(g *graph.Graph, prev *Result, added []dict.Triple) *Result {
	s := g.Schema()
	typeID := g.Dict().EncodeIRI(rdf.TypeIRI)
	derived := prev.Delta.Triples()
	for _, t := range added {
		deriveOne(s, typeID, t, func(d dict.Triple) {
			derived = append(derived, d)
		})
	}
	return result(g, g.D(), derived)
}

// NaiveSaturate is the reference implementation: it applies the RDFS
// immediate-entailment rules (rdfs2, rdfs3, rdfs5, rdfs7, rdfs9, rdfs11,
// plus downward domain/range inheritance through ⊑sp) to fixpoint over the
// full triple set (data plus direct schema triples). It is quadratic and
// only used to cross-check Saturate in tests.
func NaiveSaturate(d *dict.Dict, triples []dict.Triple) []dict.Triple {
	typeID := d.EncodeIRI(rdf.TypeIRI)
	scID := d.EncodeIRI(rdf.SubClassOfIRI)
	spID := d.EncodeIRI(rdf.SubPropertyOfIRI)
	domID := d.EncodeIRI(rdf.DomainIRI)
	rngID := d.EncodeIRI(rdf.RangeIRI)

	set := make(map[dict.Triple]bool, len(triples)*2)
	var all []dict.Triple
	add := func(t dict.Triple) {
		if !set[t] {
			set[t] = true
			all = append(all, t)
		}
	}
	for _, t := range triples {
		add(t)
	}
	for changed := true; changed; {
		changed = false
		n := len(all)
		for i := 0; i < n; i++ {
			a := all[i]
			for j := 0; j < len(all); j++ {
				b := all[j]
				for _, derived := range immediate(a, b, typeID, scID, spID, domID, rngID) {
					if !set[derived] {
						add(derived)
						changed = true
					}
				}
			}
		}
	}
	slices.SortFunc(all, graph.CompareTriples)
	return all
}

// immediate applies every binary immediate-entailment rule to the ordered
// pair (a, b) and returns the derived triples.
func immediate(a, b dict.Triple, typeID, scID, spID, domID, rngID dict.ID) []dict.Triple {
	var out []dict.Triple
	// rdfs11: (a: c1 ⊑sc c2), (b: c2 ⊑sc c3) → c1 ⊑sc c3
	if a.P == scID && b.P == scID && a.O == b.S {
		out = append(out, dict.Triple{S: a.S, P: scID, O: b.O})
	}
	// rdfs5: subproperty transitivity
	if a.P == spID && b.P == spID && a.O == b.S {
		out = append(out, dict.Triple{S: a.S, P: spID, O: b.O})
	}
	// rdfs9: (a: s τ c1), (b: c1 ⊑sc c2) → s τ c2
	if a.P == typeID && b.P == scID && a.O == b.S {
		out = append(out, dict.Triple{S: a.S, P: typeID, O: b.O})
	}
	// rdfs7: (a: s p1 o), (b: p1 ⊑sp p2) → s p2 o
	if b.P == spID && a.P == b.S {
		out = append(out, dict.Triple{S: a.S, P: b.O, O: a.O})
	}
	// rdfs2: (a: s p o), (b: p ←d c) → s τ c
	if b.P == domID && a.P == b.S {
		out = append(out, dict.Triple{S: a.S, P: typeID, O: b.O})
	}
	// rdfs3: (a: s p o), (b: p ←r c) → o τ c
	if b.P == rngID && a.P == b.S {
		out = append(out, dict.Triple{S: a.O, P: typeID, O: b.O})
	}
	// domain inheritance: (a: p1 ⊑sp p2), (b: p2 ←d c) → p1 ←d c
	if a.P == spID && b.P == domID && a.O == b.S {
		out = append(out, dict.Triple{S: a.S, P: domID, O: b.O})
	}
	// range inheritance
	if a.P == spID && b.P == rngID && a.O == b.S {
		out = append(out, dict.Triple{S: a.S, P: rngID, O: b.O})
	}
	return out
}
