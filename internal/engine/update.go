package engine

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/saturation"
)

// Live updates. The paper's §1 charges Sat with maintenance cost after
// changes; this file implements both sides of that ledger in the engine.
// The Ref side pays nothing but the write: the next version of the derived
// state (derived.go) rebuilds store and statistics from the new data when
// a query first needs them. The Sat side is maintained *incrementally* with
// the counting-based closure, and G∞ is read off it only when a Sat query
// arrives — the entailed triple set never has to be re-derived from scratch.

// InsertData adds instance triples (those already present are ignored) and
// moves the engine to a new version of its derived state.
func (e *Engine) InsertData(ts []rdf.Triple) error {
	added, err := e.g.AddData(ts)
	if err != nil {
		return err
	}
	e.dataChanged(added, (*saturation.Maintained).Insert)
	return nil
}

// DeleteData removes instance triples (absent ones are ignored) and moves
// the engine to a new version like InsertData; it returns how many triples
// were actually removed.
func (e *Engine) DeleteData(ts []rdf.Triple) (int, error) {
	removed, err := e.g.RemoveData(ts)
	if err != nil {
		return 0, err
	}
	e.dataChanged(removed, (*saturation.Maintained).Delete)
	return len(removed), nil
}

// dataChanged folds the delta the graph reported into the writer's counting
// closure and swaps in the next version of the derived state.
func (e *Engine) dataChanged(delta []dict.Triple, fold func(*saturation.Maintained, []dict.Triple)) {
	if e.closure == nil {
		// The first data change: count the graph as it is now, delta included.
		e.closure = saturation.NewMaintained(e.g)
	} else {
		fold(e.closure, delta)
	}
	e.swap(e.d)
}

// isSchemaAssertion reports whether the triple belongs to the TBox: an
// RDFS constraint or a class/property declaration.
func isSchemaAssertion(t rdf.Triple) bool {
	if rdf.IsSchemaTriple(t) {
		return true
	}
	return t.P.IsIRI() && t.P.Value == rdf.TypeIRI && t.O.IsIRI() &&
		(t.O.Value == rdf.ClassIRI || t.O.Value == rdf.PropertyIRI)
}

// UpdateSchema adds TBox triples — subClassOf, subPropertyOf, domain,
// range, or class/property declarations — and rebuilds the graph around
// the re-closed schema. The rebuild re-encodes the dictionary so hierarchy
// subtrees stay interval-contiguous; every derived structure (stores,
// statistics, cost models, reformulators, the saturation, cached GCov
// plans, the maintained closure and materialized view-cache fragments)
// refers to the old IDs or the old entailments, so the next version of the
// derived state keeps none of them. Answers computed after UpdateSchema
// returns therefore never see a stale fragment or plan.
func (e *Engine) UpdateSchema(add []rdf.Triple) error {
	for i, t := range add {
		if !t.WellFormed() {
			return fmt.Errorf("engine: schema triple %d is ill-formed: %s", i, t)
		}
		if !isSchemaAssertion(t) {
			return fmt.Errorf("engine: triple %d (%s) is not a schema triple; use InsertData", i, t)
		}
	}
	d := e.g.Dict()
	s := e.g.Schema()
	ts := make([]rdf.Triple, 0, len(s.Triples())+len(s.Classes())+len(s.Properties())+e.g.DataCount()+len(add))
	for _, t := range s.Triples() {
		ts = append(ts, d.DecodeTriple(t))
	}
	// The closure triples alone do not carry declaration-only classes and
	// properties (buildTriples emits no declarations); re-declare them so
	// the rebuilt schema keeps the same class and property sets.
	for _, c := range s.Classes() {
		ts = append(ts, rdf.Triple{S: d.Decode(c), P: rdf.Type, O: rdf.NewIRI(rdf.ClassIRI)})
	}
	for _, p := range s.Properties() {
		ts = append(ts, rdf.Triple{S: d.Decode(p), P: rdf.Type, O: rdf.NewIRI(rdf.PropertyIRI)})
	}
	ts = append(ts, e.g.DecodedData()...)
	ts = append(ts, add...)
	g, err := graph.FromTriples(ts)
	if err != nil {
		return err
	}
	e.g = g
	e.swap(nil)
	return nil
}
