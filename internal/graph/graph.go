// Package graph assembles an RDF graph in the database fragment of the
// paper: instance (data) triples plus RDFS schema constraints, dictionary
// encoded. The DB fragment places no restriction on triples and restricts
// entailment to the RDFS rules, so loading only needs to split schema from
// data and close the schema.
package graph

import (
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/dict"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Graph is an RDF graph of the database fragment: dictionary-encoded data
// triples plus a closed RDFS schema.
type Graph struct {
	d      *dict.Dict
	schema *schema.Schema
	// all is D, the database reformulations are evaluated against: the data
	// triples plus the closed schema's, a run sorted (S,P,O). A published D
	// is never written: a write replaces it with its Apply, which shares
	// every block the write does not touch.
	all *storage.Run
}

// FromTriples builds a graph from raw triples: RDFS constraint triples feed
// the schema (which is closed), the rest become data triples. Ill-formed
// triples are rejected.
func FromTriples(ts []rdf.Triple) (*Graph, error) {
	d := dict.New()
	b := schema.NewBuilder(d)
	data := make([]dict.Triple, 0, len(ts))
	for i, t := range ts {
		if !t.WellFormed() {
			return nil, fmt.Errorf("graph: triple %d is ill-formed: %s", i, t)
		}
		if b.AddTriple(t) {
			continue
		}
		data = append(data, d.EncodeTriple(t))
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return assemble(d, b.Close(), data), nil
}

// assemble applies the hierarchy-aware interval encoding and returns the
// graph over data and the closed schema s: IDs are permuted so every
// subClassOf/subPropertyOf subtree occupies a contiguous interval
// (schema.BuildIntervalRemap), the dictionary, schema and data triples are
// rewritten through the remap table, and the subtree-interval table is
// installed on the dictionary. Terms encoded later (new data) take IDs past
// the hierarchy blocks, which leaves existing intervals valid. D is then
// the data, sorted, merged with the closure triples and cut into a run: data
// triples never have a constraint predicate, so the two never overlap.
func assemble(d *dict.Dict, s *schema.Schema, data []dict.Triple) *Graph {
	remap, changed := s.BuildIntervalRemap()
	if changed {
		if err := d.Permute(remap); err != nil {
			panic(fmt.Sprintf("graph: reencode: %v", err))
		}
		s = s.Remapped(remap)
		for i, t := range data {
			data[i] = dict.Triple{S: remap[t.S], P: remap[t.P], O: remap[t.O]}
		}
	}
	d.SetIntervals(s.SubtreeIntervals())
	slices.SortFunc(data, CompareTriples)
	return &Graph{d: d, schema: s, all: storage.NewRun(storage.Merge(slices.Compact(data), s.Triples(), nil))}
}

// Parse reads triples in N-Triples/Turtle-subset syntax and builds a graph.
func Parse(r io.Reader) (*Graph, error) {
	ts, err := ntriples.ParseAll(r)
	if err != nil {
		return nil, err
	}
	return FromTriples(ts)
}

// ParseString is Parse over a string.
func ParseString(s string) (*Graph, error) {
	ts, err := ntriples.ParseString(s)
	if err != nil {
		return nil, err
	}
	return FromTriples(ts)
}

// LoadFile parses the file at path into a graph.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Dict returns the graph's dictionary.
func (g *Graph) Dict() *dict.Dict { return g.d }

// Schema returns the closed RDFS schema.
func (g *Graph) Schema() *schema.Schema { return g.schema }

// DataCount returns the number of instance triples: D less the closure
// triples, which AddData never lets a data triple duplicate.
func (g *Graph) DataCount() int { return g.all.Len() - len(g.schema.Triples()) }

// D returns D, data plus closed-schema triples sorted (S,P,O): the database
// the reformulated queries are evaluated against (schema-level atoms are
// answered from the closed schema), as the graph holds it. A write replaces
// it and never changes it, so a caller holding it keeps the graph as it was.
func (g *Graph) D() *storage.Run { return g.all }

// AllTriples returns D as one fresh slice, a copy made on demand.
func (g *Graph) AllTriples() []dict.Triple { return g.all.Triples() }

// AddData adds instance triples to the graph and returns, sorted, the
// encoded triples that were not already in it (schema triples are
// rejected: constraint changes require rebuilding the graph so the closure
// stays consistent — see experiment E5).
func (g *Graph) AddData(ts []rdf.Triple) ([]dict.Triple, error) {
	add, err := g.delta(ts, false, func(t rdf.Triple) (dict.Triple, bool) { return g.d.EncodeTriple(t), true })
	if err != nil {
		return nil, err
	}
	g.all = g.all.Apply(add, nil)
	return add, nil
}

// RemoveData deletes instance triples from the graph and returns, sorted,
// the encoded triples that were in it (absent triples are ignored; schema
// triples are rejected like in AddData).
func (g *Graph) RemoveData(ts []rdf.Triple) ([]dict.Triple, error) {
	drop, err := g.delta(ts, true, g.lookupTriple)
	if err != nil {
		return nil, err
	}
	g.all = g.all.Apply(nil, drop)
	return drop, nil
}

// delta checks and encodes ts and returns, sorted and duplicate free, those
// in D when present is set, those not in it otherwise: a write's effective
// delta. encode reports false for a triple that cannot be in D.
func (g *Graph) delta(ts []rdf.Triple, present bool, encode func(rdf.Triple) (dict.Triple, bool)) ([]dict.Triple, error) {
	out := make([]dict.Triple, 0, len(ts))
	for i, t := range ts {
		if err := checkDataTriple(i, t); err != nil {
			return nil, err
		}
		if enc, ok := encode(t); ok {
			if g.all.Contains(enc) == present {
				out = append(out, enc)
			}
		}
	}
	slices.SortFunc(out, CompareTriples)
	return slices.Compact(out), nil
}

func checkDataTriple(i int, t rdf.Triple) error {
	if !t.WellFormed() {
		return fmt.Errorf("graph: triple %d is ill-formed: %s", i, t)
	}
	if rdf.IsSchemaTriple(t) {
		return fmt.Errorf("graph: triple %d declares a constraint (%s); rebuild the graph to change constraints", i, t)
	}
	return nil
}

// lookupTriple encodes a triple without growing the dictionary; ok is
// false when any term is unknown (the triple then cannot be stored).
func (g *Graph) lookupTriple(t rdf.Triple) (dict.Triple, bool) {
	s, ok1 := g.d.Lookup(t.S)
	p, ok2 := g.d.Lookup(t.P)
	o, ok3 := g.d.Lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return dict.Triple{}, false
	}
	return dict.Triple{S: s, P: p, O: o}, true
}

// DecodedData decodes all instance triples back to terms, in sorted order.
func (g *Graph) DecodedData() []rdf.Triple {
	data := g.data()
	out := make([]rdf.Triple, len(data))
	for i, t := range data {
		out[i] = g.d.DecodeTriple(t)
	}
	return out
}

// data returns the instance triples, flat: D less the closure triples.
func (g *Graph) data() []dict.Triple { return g.all.Apply(nil, g.schema.Triples()).Triples() }

// Val returns Val(G): the set of values of the graph (data plus schema).
func (g *Graph) Val() []rdf.Term {
	all := g.AllTriples()
	dec := make([]rdf.Triple, len(all))
	for i, t := range all {
		dec[i] = g.d.DecodeTriple(t)
	}
	return rdf.Val(dec)
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{data:%d %s}", g.DataCount(), g.schema)
}

// CompareTriples orders encoded triples by (S, P, O).
func CompareTriples(a, b dict.Triple) int {
	switch {
	case a.S != b.S:
		if a.S < b.S {
			return -1
		}
		return 1
	case a.P != b.P:
		if a.P < b.P {
			return -1
		}
		return 1
	case a.O != b.O:
		if a.O < b.O {
			return -1
		}
		return 1
	}
	return 0
}
