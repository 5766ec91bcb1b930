package query

import (
	"math"

	"repro/internal/dict"
)

// This file defines query shapes: a CQ with its instance constants lifted
// out into numbered parameters. The reformulation rules (core.expand, and
// the range alternatives beside them) read only the schema and the class and
// property positions of an atom; a subject constant, or the object of a
// property other than rdf:type, is carried through every rule untouched. So
// a reformulation of the shape is, with the parameters substituted back, a
// reformulation of the query — computed once per shape instead of once per
// constant.

// paramBase is the first of the dictionary IDs reserved for parameters: the
// top 2^16 values of the ID space. The dictionary hands IDs out densely from
// 1 and would need over four billion terms to reach them.
const paramBase = dict.ID(math.MaxUint32 - maxParams + 1)

// maxParams is how many parameters one shape can have; constants beyond
// that stay in the shape.
const maxParams = 1 << 16

// Param returns the constant that stands for parameter slot i of a shape.
func Param(slot int) Arg { return Arg{ID: paramBase + dict.ID(slot)} }

// Slot returns the parameter slot a stands for; ok is false for a variable
// and for an ordinary constant.
func (a Arg) Slot() (slot int, ok bool) {
	if a.IsVar() || a.ID < paramBase {
		return 0, false
	}
	return int(a.ID - paramBase), true
}

// Bind returns the value of the parameter a stands for, and a itself when it
// stands for none.
func (a Arg) Bind(params []dict.ID) Arg {
	if slot, ok := a.Slot(); ok {
		return Arg{ID: params[slot]}
	}
	return a
}

// Lift splits q into its shape and the parameters that give q back when
// bound into it. A constant is lifted exactly when no reformulation rule
// reads it: in subject position, or in object position under a constant
// property other than rdf:type (typeID). A property, the object of rdf:type
// (a class: rules 1–3 walk its hierarchy) and the object under a property
// variable (rules 9–11 read it as a class) select rules and stay, as do head
// constants. Every occurrence is its own slot, in atom order, so what is
// derived from the shape holds whether or not two slots bind the same value.
func Lift(q CQ, typeID dict.ID) (shape CQ, params []dict.ID) {
	shape = CQ{Head: q.Head, Atoms: make([]Atom, len(q.Atoms))}
	lift := func(a *Arg) {
		if len(params) < maxParams {
			params = append(params, a.ID)
			*a = Param(len(params) - 1)
		}
	}
	for i, t := range q.Atoms {
		if !t.S.IsVar() {
			lift(&t.S)
		}
		if !t.O.IsVar() && !t.P.IsVar() && t.P.ID != typeID {
			lift(&t.O)
		}
		shape.Atoms[i] = t
	}
	return shape, params
}

// bindAtoms substitutes the parameters in the subject and object positions,
// the only ones Lift puts them in.
func bindAtoms(atoms []Atom, params []dict.ID) {
	for i := range atoms {
		atoms[i].S = atoms[i].S.Bind(params)
		atoms[i].O = atoms[i].O.Bind(params)
	}
}

// Bind returns the CQ with its parameters bound; the head, which holds
// none, is shared.
func (q CQ) Bind(params []dict.ID) CQ {
	atoms := append([]Atom(nil), q.Atoms...)
	bindAtoms(atoms, params)
	return CQ{Head: q.Head, Atoms: atoms}
}

// Bind returns the union with the parameters of every member bound. The
// members' atoms are copied into one allocation; their heads (variables and
// schema constants the rules bound) are shared with u, which is not written.
func (u UCQ) Bind(params []dict.ID) UCQ {
	flat := make([]Atom, 0, u.Atoms())
	cqs := make([]CQ, len(u.CQs))
	for i, cq := range u.CQs {
		n := len(flat)
		flat = append(flat, cq.Atoms...)
		cqs[i] = CQ{Head: cq.Head, Atoms: flat[n:len(flat):len(flat)]}
	}
	bindAtoms(flat, params)
	return UCQ{HeadNames: u.HeadNames, CQs: cqs}
}

// Bind is UCQ.Bind for a range union: ranges and expansions come from the
// property and class positions, hold no parameter and are shared.
func (u RangeUCQ) Bind(params []dict.ID) RangeUCQ {
	total := 0
	for _, cq := range u.CQs {
		total += len(cq.Atoms)
	}
	flat := make([]RangeAtom, 0, total)
	cqs := make([]RangeCQ, len(u.CQs))
	for i, cq := range u.CQs {
		n := len(flat)
		flat = append(flat, cq.Atoms...)
		cqs[i] = RangeCQ{Head: cq.Head, Atoms: flat[n:len(flat):len(flat)]}
	}
	for i := range flat {
		flat[i].S.Arg = flat[i].S.Arg.Bind(params)
		flat[i].O.Arg = flat[i].O.Arg.Bind(params)
	}
	return RangeUCQ{HeadNames: u.HeadNames, CQs: cqs}
}
