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
// The Ref side pays nothing but the write: the writer hands the delta the
// graph reported to the next version of the derived state (derived.go),
// whose first reader merges it into the previous version's store and
// adjusts the statistics by it. The Sat side is maintained *incrementally*
// with the counting-based closure for as long as Sat is being read, and G∞
// is read off it when a Sat query arrives — the entailed triple set is
// re-derived from scratch only after writes nobody read through Sat.

// InsertData adds instance triples (those already present are ignored) and
// moves the engine to a new version of its derived state.
func (e *Engine) InsertData(ts []rdf.Triple) error {
	added, err := e.g.AddData(ts)
	if err != nil {
		return err
	}
	e.dataChanged(added, nil)
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
	e.dataChanged(nil, removed)
	return len(removed), nil
}

// dataChanged swaps in the next version of the derived state, one delta —
// what the graph reported — further. Sat pays for Sat: the delta is folded
// into the writer's counting closure only if G∞ was read on the version
// being replaced; otherwise the closure is dropped, and the next Sat query
// saturates the graph.
func (e *Engine) dataChanged(added, removed []dict.Triple) {
	switch {
	case !e.d.satRead.Load():
		if e.closure != nil {
			e.closure = nil
			e.Metrics.Counter("engine.closure.dropped").Inc()
		}
	case e.closure == nil:
		// The first change since: count the graph as it is now, delta included.
		e.closure = saturation.NewMaintained(e.g)
	default:
		e.d.sat() // a reader of the replaced version's G∞ finishes before the fold
		e.closure.Insert(added)
		e.closure.Delete(removed)
	}
	e.swap(e.d, added, removed)
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
	e.swap(nil, nil, nil)
	return nil
}
