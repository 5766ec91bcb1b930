package saturation

import (
	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/storage"
)

// Maintained keeps a saturation incrementally correct under both inserts
// and *deletes* — the maintenance burden §1 charges against Sat. Because
// the schema is closed and fixed, every entailed triple is a one-step
// consequence of exactly one data triple, so a derivation counter per
// entailed triple suffices: insertion increments the counters of the
// triple's consequences, deletion decrements them, and an entailed triple
// is in the closure while its counter is positive (or it is explicit).
// Constraint changes still require a rebuild (experiment E5).
//
// The explicit triples are held once, by the graph: Maintained keeps the
// counters and the graph's D as of its last Insert or Delete — the run
// itself, not a copy — which a later write to the graph replaces but never
// changes, so the closure read off it is always the one of the D it was
// last advanced against. The graph is the owner of set semantics — Insert
// and Delete must be given exactly the triples Graph.AddData and
// Graph.RemoveData reported as added or removed, after the graph changed.
type Maintained struct {
	g      *graph.Graph
	typeID dict.ID
	all    *storage.Run // g's D when last advanced

	derived map[dict.Triple]int // derivation counts (explicit or not)
}

// NewMaintained initializes the maintained saturation from the graph's
// current data.
func NewMaintained(g *graph.Graph) *Maintained {
	m := &Maintained{
		g:       g,
		typeID:  g.Dict().EncodeIRI(rdf.TypeIRI),
		derived: make(map[dict.Triple]int, g.DataCount()),
	}
	m.all = g.D()
	// A closure triple derives nothing.
	m.all.Each(func(ts []dict.Triple) bool {
		m.count(ts)
		return true
	})
	return m
}

// Insert counts the consequences of triples that just became explicit.
func (m *Maintained) Insert(added []dict.Triple) {
	m.all = m.g.D()
	m.count(added)
}

// count counts the consequences of explicit triples.
func (m *Maintained) count(added []dict.Triple) {
	for _, t := range added {
		deriveOne(m.g.Schema(), m.typeID, t, func(d dict.Triple) {
			m.derived[d]++
		})
	}
}

// Delete uncounts the consequences of triples that just stopped being
// explicit, retracting entailed triples whose last derivation disappeared.
func (m *Maintained) Delete(removed []dict.Triple) {
	m.all = m.g.D()
	for _, t := range removed {
		deriveOne(m.g.Schema(), m.typeID, t, func(d dict.Triple) {
			if m.derived[d] <= 1 {
				delete(m.derived, d)
			} else {
				m.derived[d]--
			}
		})
	}
}

// Contains reports whether the triple is in the current closure (explicit,
// entailed, or part of the closed schema).
func (m *Maintained) Contains(t dict.Triple) bool {
	return m.all.Contains(t) || m.derived[t] > 0
}

// Triples returns the current closure G∞ (explicit + entailed + closed
// schema), sorted and deduplicated.
func (m *Maintained) Triples() []dict.Triple { return m.Result().Triples() }

// Result returns the current closure in the shape Saturate reports it: the
// D it was last advanced against, and the entailed triples D lacks.
func (m *Maintained) Result() *Result {
	derived := make([]dict.Triple, 0, len(m.derived))
	for t := range m.derived {
		derived = append(derived, t)
	}
	return result(m.g, m.all, derived)
}
