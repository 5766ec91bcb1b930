// Package testutil provides deterministic random generators of RDF
// scenarios (schema constraints, data triples, conjunctive queries) used by
// the property-based tests: the central invariant of the repository is
// that, on any generated scenario, reformulation-based answering agrees
// with saturation-based answering.
package testutil

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/rdf"
)

// NS is the namespace of generated scenario vocabulary.
const NS = "http://example.org/gen#"

// Scenario is one randomly generated test universe.
type Scenario struct {
	Graph   *graph.Graph
	Raw     []rdf.Triple // the full input (schema + data), pre-split
	Classes []rdf.Term
	Props   []rdf.Term
	Ents    []rdf.Term
}

// RandomScenario builds a random DB-fragment graph: an acyclic subclass
// hierarchy, an acyclic subproperty hierarchy, random domain/range
// constraints, and random instance triples over a small entity pool.
func RandomScenario(r *rand.Rand) (*Scenario, error) {
	nClasses := 3 + r.Intn(6)
	nProps := 2 + r.Intn(5)
	nEnts := 4 + r.Intn(12)

	s := &Scenario{}
	for i := 0; i < nClasses; i++ {
		s.Classes = append(s.Classes, rdf.NewIRI(fmt.Sprintf("%sC%d", NS, i)))
	}
	for i := 0; i < nProps; i++ {
		s.Props = append(s.Props, rdf.NewIRI(fmt.Sprintf("%sp%d", NS, i)))
	}
	for i := 0; i < nEnts; i++ {
		if r.Intn(8) == 0 {
			s.Ents = append(s.Ents, rdf.NewBlank(fmt.Sprintf("b%d", i)))
		} else {
			s.Ents = append(s.Ents, rdf.NewIRI(fmt.Sprintf("%se%d", NS, i)))
		}
	}

	var ts []rdf.Triple
	// Acyclic subclass edges: only from lower to higher index.
	for i := 0; i < nClasses; i++ {
		for j := i + 1; j < nClasses; j++ {
			if r.Intn(4) == 0 {
				ts = append(ts, rdf.NewTriple(s.Classes[i], rdf.SubClassOf, s.Classes[j]))
			}
		}
	}
	// Acyclic subproperty edges.
	for i := 0; i < nProps; i++ {
		for j := i + 1; j < nProps; j++ {
			if r.Intn(4) == 0 {
				ts = append(ts, rdf.NewTriple(s.Props[i], rdf.SubPropertyOf, s.Props[j]))
			}
		}
	}
	// Domains and ranges.
	for _, p := range s.Props {
		if r.Intn(2) == 0 {
			ts = append(ts, rdf.NewTriple(p, rdf.Domain, s.Classes[r.Intn(nClasses)]))
		}
		if r.Intn(2) == 0 {
			ts = append(ts, rdf.NewTriple(p, rdf.Range, s.Classes[r.Intn(nClasses)]))
		}
	}
	// Instance triples.
	nData := 5 + r.Intn(40)
	for i := 0; i < nData; i++ {
		e := s.Ents[r.Intn(nEnts)]
		switch r.Intn(4) {
		case 0: // class assertion
			ts = append(ts, rdf.NewTriple(e, rdf.Type, s.Classes[r.Intn(nClasses)]))
		case 1: // property assertion to a literal
			ts = append(ts, rdf.NewTriple(e, s.Props[r.Intn(nProps)],
				rdf.NewLiteral(fmt.Sprintf("lit%d", r.Intn(6)))))
		default: // property assertion between entities
			ts = append(ts, rdf.NewTriple(e, s.Props[r.Intn(nProps)], s.Ents[r.Intn(nEnts)]))
		}
	}
	g, err := graph.FromTriples(ts)
	if err != nil {
		return nil, err
	}
	s.Graph = g
	s.Raw = ts
	return s, nil
}

// RandomQuery builds a random valid CQ over the scenario's vocabulary:
// 1–4 atoms over a small variable pool, with occasional variable
// properties, variable classes and constants, and one time in two an atom
// another atom implies under the schema; head = random non-empty subset of
// the body variables (or empty for boolean queries, 1 in 8).
func (s *Scenario) RandomQuery(r *rand.Rand) query.CQ {
	d := s.Graph.Dict()
	vars := []string{"x", "y", "z", "w"}
	nAtoms := 1 + r.Intn(4)
	atoms := make([]query.Atom, 0, nAtoms)
	pickVar := func() query.Arg { return query.Variable(vars[r.Intn(len(vars))]) }
	pickEnt := func() query.Arg { return query.Constant(d.Encode(s.Ents[r.Intn(len(s.Ents))])) }
	pickClass := func() query.Arg { return query.Constant(d.Encode(s.Classes[r.Intn(len(s.Classes))])) }
	pickProp := func() query.Arg { return query.Constant(d.Encode(s.Props[r.Intn(len(s.Props))])) }

	for i := 0; i < nAtoms; i++ {
		var subj query.Arg
		if r.Intn(4) == 0 {
			subj = pickEnt()
		} else {
			subj = pickVar()
		}
		switch r.Intn(8) {
		case 0, 1: // type atom with constant class
			atoms = append(atoms, query.Atom{S: subj, P: query.Constant(d.Encode(rdf.Type)), O: pickClass()})
		case 2: // type atom with variable class
			atoms = append(atoms, query.Atom{S: subj, P: query.Constant(d.Encode(rdf.Type)), O: pickVar()})
		case 3: // variable property
			atoms = append(atoms, query.Atom{S: subj, P: pickVar(), O: pickVar()})
		case 4: // schema-level atom: class variables can join type atoms
			// (exercises the rules-12/13 subsumption: the closed schema
			// is stored alongside the data).
			sc := query.Constant(d.Encode(rdf.SubClassOf))
			if r.Intn(2) == 0 {
				atoms = append(atoms, query.Atom{S: pickVar(), P: sc, O: pickClass()})
			} else {
				atoms = append(atoms, query.Atom{S: pickVar(), P: sc, O: pickVar()})
			}
		default: // property atom
			var obj query.Arg
			switch r.Intn(4) {
			case 0:
				obj = pickEnt()
			default:
				obj = pickVar()
			}
			atoms = append(atoms, query.Atom{S: subj, P: pickProp(), O: obj})
		}
	}
	// Half the queries carry an atom the rest of the query implies, at a
	// random place: what the schema reduction drops (core.Reduce).
	if r.Intn(2) == 0 {
		t := atoms[r.Intn(len(atoms))]
		if alts := s.implied(t); len(alts) > 0 {
			at := r.Intn(len(atoms) + 1)
			atoms = append(atoms[:at], append([]query.Atom{alts[r.Intn(len(alts))]}, atoms[at:]...)...)
		}
	}
	q := query.CQ{Atoms: atoms}
	bodyVars := q.Vars()
	if len(bodyVars) == 0 || r.Intn(8) == 0 {
		return q // boolean query
	}
	// Random non-empty head subset, in body order.
	var head []query.Arg
	for _, v := range bodyVars {
		if r.Intn(2) == 0 {
			head = append(head, query.Variable(v))
		}
	}
	if len(head) == 0 {
		head = append(head, query.Variable(bodyVars[r.Intn(len(bodyVars))]))
	}
	q.Head = head
	return q
}

// implied returns the atoms t implies under the scenario's closed schema by
// one saturation step: its subject typed by a superclass, or by a domain of
// its property, its object by a range, or t under a superproperty.
func (s *Scenario) implied(t query.Atom) []query.Atom {
	if t.P.IsVar() {
		return nil
	}
	sch, d := s.Graph.Schema(), s.Graph.Dict()
	typ := query.Constant(d.Encode(rdf.Type))
	var out []query.Atom
	if t.P == typ {
		if !t.O.IsVar() {
			for _, c := range sch.SuperClasses(t.O.ID) {
				out = append(out, query.Atom{S: t.S, P: typ, O: query.Constant(c)})
			}
		}
		return out
	}
	for _, p := range sch.SuperProperties(t.P.ID) {
		out = append(out, query.Atom{S: t.S, P: query.Constant(p), O: t.O})
	}
	for _, c := range sch.DomainClosure(t.P.ID) {
		out = append(out, query.Atom{S: t.S, P: typ, O: query.Constant(c)})
	}
	for _, c := range sch.RangeClosure(t.P.ID) {
		out = append(out, query.Atom{S: t.O, P: typ, O: query.Constant(c)})
	}
	return out
}
