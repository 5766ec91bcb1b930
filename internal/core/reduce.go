package core

import (
	"slices"

	"repro/internal/dict"
	"repro/internal/query"
)

// This file reduces a query under the schema before it is reformulated:
// semantic query optimization, minimization by the chase of Schmidt, Meier
// and Lausen (Foundations of SPARQL Query Optimization) under the paper's
// own RDFS constraints. An atom that the rest of the query implies adds
// nothing to q(G∞), yet it multiplies the UCQ reformulation — whose size is
// the product of the per-atom alternatives — widens GCov's cover space, and
// adds a join to every strategy, Sat included. LUBM's Q9 loses its three
// rdf:type atoms to the domains and ranges of advisor, teacherOf and
// takesCourse, and its 288-CQ union becomes one CQ.

// Implied is one atom Reduce dropped: the atom By, which the reduced query
// keeps, implies it through one constraint of the closed schema.
type Implied struct {
	Atom, By int // indexes in the posed query
	rule     impliedRule
}

type impliedRule uint8

const (
	sameAtom      impliedRule = iota // By is the same atom, written twice
	bySubClass                       // s τ c' and c' ⊑sc c give s τ c
	bySubProperty                    // s p' o and p' ⊑sp p give s p o
	byDomain                         // s p o and p ←d c give s τ c
	byRange                          // o p s and p ←r c give s τ c
)

// Reduce drops from q, one atom at a time and in atom order, every atom that
// the saturation of the rest of q — its variables frozen into constants —
// contains, under the rules r applies: the subClassOf and subPropertyOf
// rules always, domain and range when r.UseDomainRange is set. The rules
// are those saturation.deriveOne applies to one triple, so the range rule
// types a literal object too. Each atom is checked against the atoms still
// left, so of two atoms that imply each other (classes on a subClassOf
// cycle) one stays.
//
// An atom with a variable class or property is never dropped, nor is an
// atom over the schema vocabulary. The implying atom holds every term of
// the atom it implies, so a dropped atom's variables — head variables
// among them — all occur in what is left. A shape's parameter equals only
// itself, so the reduction of a shape (query.Lift) holds for every binding
// of it.
//
// Reduce returns q itself, and allocates nothing, when no atom is implied;
// otherwise a new CQ with q's head and the atoms left, in their order, and
// the dropped atoms in atom order.
func (r *Reformulator) Reduce(q query.CQ) (query.CQ, []Implied) {
	var implied []Implied
	for i := range q.Atoms {
		if im, ok := r.implied(q, i, implied); ok {
			implied = append(implied, im)
		}
	}
	if implied == nil {
		return q, nil
	}
	atoms := make([]query.Atom, 0, len(q.Atoms)-len(implied))
	for i, a := range q.Atoms {
		if !dropped(implied, i) {
			atoms = append(atoms, a)
		}
	}
	return query.CQ{Head: q.Head, Atoms: atoms}, implied
}

// dropped reports whether atom i is among the implied ones.
func dropped(implied []Implied, i int) bool {
	for _, im := range implied {
		if im.Atom == i {
			return true
		}
	}
	return false
}

// implied reports whether an atom of q other than i, and not already
// dropped, implies atom i, and through which rule.
func (r *Reformulator) implied(q query.CQ, i int, gone []Implied) (Implied, bool) {
	a := q.Atoms[i]
	if a.P.IsVar() || r.isSchemaProperty(a.P.ID) || (a.P.ID == r.typeID && a.O.IsVar()) {
		return Implied{}, false
	}
	for j, b := range q.Atoms {
		if j == i || dropped(gone, j) {
			continue
		}
		if rule, ok := r.implies(b, a); ok {
			return Implied{Atom: i, By: j, rule: rule}, true
		}
	}
	return Implied{}, false
}

// implies reports whether the saturation of the frozen atom b holds the
// atom a, which has a constant property and, under rdf:type, a constant
// class — one derivation of saturation.deriveOne.
func (r *Reformulator) implies(b, a query.Atom) (impliedRule, bool) {
	if b == a {
		return sameAtom, true
	}
	if b.P.IsVar() {
		return 0, false
	}
	if a.P.ID != r.typeID {
		return bySubProperty, b.S == a.S && b.O == a.O && r.s.IsSubProperty(b.P.ID, a.P.ID)
	}
	c := a.O.ID
	switch {
	case b.P.ID == r.typeID:
		return bySubClass, b.S == a.S && !b.O.IsVar() && r.s.IsSubClass(b.O.ID, c)
	case !r.UseDomainRange:
		return 0, false
	case b.S == a.S && hasID(r.s.DomainClosure(b.P.ID), c):
		return byDomain, true
	case b.O == a.S && hasID(r.s.RangeClosure(b.P.ID), c):
		return byRange, true
	}
	return 0, false
}

// hasID reports whether the sorted ids hold id.
func hasID(ids []dict.ID, id dict.ID) bool {
	_, ok := slices.BinarySearch(ids, id)
	return ok
}

func (r *Reformulator) isSchemaProperty(p dict.ID) bool {
	return slices.Contains(r.schemaProps[:], p)
}

// Constraint renders the constraint through which im's atom follows from
// its implying atom in q (the posed query, or its shape): a triple of the
// closed schema, such as "ub:memberOf rdfs:domain ub:Person", or two when a
// domain or range class reaches the implied class through subClassOf.
func (r *Reformulator) Constraint(q query.CQ, im Implied) string {
	a, b := q.Atoms[im.Atom], q.Atoms[im.By]
	term := func(id dict.ID) string { return r.d.Decode(id).String() }
	triple := func(s, p, o dict.ID) string { return term(s) + " " + term(p) + " " + term(o) }
	sc := r.schemaProps[0]
	switch im.rule {
	case bySubClass:
		return triple(b.O.ID, sc, a.O.ID)
	case bySubProperty:
		return triple(b.P.ID, r.schemaProps[1], a.P.ID)
	case byDomain, byRange:
		rel, classes := r.schemaProps[2], r.s.Domains(b.P.ID)
		if im.rule == byRange {
			rel, classes = r.schemaProps[3], r.s.Ranges(b.P.ID)
		}
		c := a.O.ID
		if hasID(classes, c) {
			return triple(b.P.ID, rel, c)
		}
		for _, via := range classes {
			if r.s.IsSubClass(via, c) {
				return triple(b.P.ID, rel, via) + ", " + triple(via, sc, c)
			}
		}
	}
	return "the same atom"
}
