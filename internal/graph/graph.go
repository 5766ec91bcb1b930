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
)

// Graph is an RDF graph of the database fragment: dictionary-encoded data
// triples plus a closed RDFS schema.
type Graph struct {
	d      *dict.Dict
	schema *schema.Schema
	data   []dict.Triple // sorted (S,P,O), deduplicated
}

// FromTriples builds a graph from raw triples: RDFS constraint triples feed
// the schema (which is closed), the rest become data triples. Ill-formed
// triples are rejected.
func FromTriples(ts []rdf.Triple) (*Graph, error) {
	d := dict.New()
	b := schema.NewBuilder(d)
	var data []dict.Triple
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
	g := &Graph{d: d, schema: b.Close(), data: sortDedup(data)}
	g.Reencode()
	return g, nil
}

// Reencode applies the hierarchy-aware interval encoding: IDs are permuted
// so every subClassOf/subPropertyOf subtree occupies a contiguous interval
// (schema.BuildIntervalRemap), the dictionary, schema and data triples are
// rewritten through the remap table, and the subtree-interval table is
// installed on the dictionary. Idempotent; called after every schema
// (re)build. Terms encoded later (new data) take IDs past the hierarchy
// blocks, which leaves existing intervals valid.
func (g *Graph) Reencode() {
	remap, changed := g.schema.BuildIntervalRemap()
	if changed {
		if err := g.d.Permute(remap); err != nil {
			panic(fmt.Sprintf("graph: reencode: %v", err))
		}
		g.schema = g.schema.Remapped(remap)
		for i, t := range g.data {
			g.data[i] = dict.Triple{S: remap[t.S], P: remap[t.P], O: remap[t.O]}
		}
		g.data = sortDedup(g.data)
	}
	g.d.SetIntervals(g.schema.SubtreeIntervals())
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

// Data returns the encoded instance triples (sorted, deduplicated). The
// slice must not be mutated.
func (g *Graph) Data() []dict.Triple { return g.data }

// DataCount returns the number of instance triples.
func (g *Graph) DataCount() int { return len(g.data) }

// AllTriples returns data plus closed-schema triples: the database the
// reformulated queries are evaluated against (schema-level atoms are
// answered from the closed schema).
func (g *Graph) AllTriples() []dict.Triple {
	all := make([]dict.Triple, 0, len(g.data)+len(g.schema.Triples()))
	all = append(all, g.data...)
	all = append(all, g.schema.Triples()...)
	return sortDedup(all)
}

// AddData adds instance triples to the graph and returns, sorted, the
// encoded triples that were not already in it (schema triples are
// rejected: constraint changes require rebuilding the graph so the closure
// stays consistent — see experiment E5).
func (g *Graph) AddData(ts []rdf.Triple) ([]dict.Triple, error) {
	add := make([]dict.Triple, 0, len(ts))
	for i, t := range ts {
		if err := checkDataTriple(i, t); err != nil {
			return nil, err
		}
		if enc := g.d.EncodeTriple(t); !g.has(enc) {
			add = append(add, enc)
		}
	}
	add = sortDedup(add)
	// Merge the sorted batch in from the back: one pass over the tail of
	// the data it lands in, no re-sort of what was already in order.
	i, w := len(g.data)-1, len(g.data)+len(add)-1
	g.data = append(g.data, add...)
	for j := len(add) - 1; j >= 0; w-- {
		if i >= 0 && CompareTriples(g.data[i], add[j]) > 0 {
			g.data[w] = g.data[i]
			i--
		} else {
			g.data[w] = add[j]
			j--
		}
	}
	return add, nil
}

// RemoveData deletes instance triples from the graph and returns, sorted,
// the encoded triples that were in it (absent triples are ignored; schema
// triples are rejected like in AddData).
func (g *Graph) RemoveData(ts []rdf.Triple) ([]dict.Triple, error) {
	var drop []dict.Triple
	for i, t := range ts {
		if err := checkDataTriple(i, t); err != nil {
			return nil, err
		}
		if enc, ok := g.lookupTriple(t); ok && g.has(enc) {
			drop = append(drop, enc)
		}
	}
	drop = sortDedup(drop)
	kept, j := g.data[:0], 0
	for _, t := range g.data {
		if j < len(drop) && t == drop[j] {
			j++
			continue
		}
		kept = append(kept, t)
	}
	g.data = kept
	return drop, nil
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

// has reports whether the encoded triple is an instance triple of the graph.
func (g *Graph) has(t dict.Triple) bool {
	_, ok := slices.BinarySearchFunc(g.data, t, CompareTriples)
	return ok
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
	out := make([]rdf.Triple, len(g.data))
	for i, t := range g.data {
		out[i] = g.d.DecodeTriple(t)
	}
	return out
}

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
	return fmt.Sprintf("graph{data:%d %s}", len(g.data), g.schema)
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

func sortDedup(ts []dict.Triple) []dict.Triple {
	slices.SortFunc(ts, CompareTriples)
	return slices.Compact(ts)
}
