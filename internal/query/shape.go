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

// Bind returns the CQ with its parameters bound — in the subject and object
// positions, the only ones Lift puts them in; the head, which holds none, is
// shared.
func (q CQ) Bind(params []dict.ID) CQ {
	atoms := append([]Atom(nil), q.Atoms...)
	for i := range atoms {
		atoms[i].S, atoms[i].O = atoms[i].S.Bind(params), atoms[i].O.Bind(params)
	}
	return CQ{Head: q.Head, Atoms: atoms}
}

// Bind returns the fragment with what is evaluated of it bound: its CQ, and
// its Members — UCQ's, lifted, when it has none. UCQ stays the shape's, read
// for its size and price only: binding it would copy every member of the
// reformulation once more.
func (f Fragment) Bind(params []dict.ID) Fragment {
	if f.Members == nil {
		f.Members = f.UCQ.Lift()
	}
	f.CQ, f.Members = f.CQ.Bind(params), bindMembers(f.Members, params)
	return f
}

// bindMembers binds the members' parameters, copying their atoms into one
// allocation. Their heads (variables and schema constants the rules bound),
// ranges and expansions come from the head, property and class positions,
// hold no parameter and are shared with cqs, which is not written.
func bindMembers(cqs []RangeCQ, params []dict.ID) []RangeCQ {
	total := 0
	for _, cq := range cqs {
		total += len(cq.Atoms)
	}
	flat := make([]RangeAtom, 0, total)
	out := make([]RangeCQ, len(cqs))
	for i, cq := range cqs {
		n := len(flat)
		flat = append(flat, cq.Atoms...)
		out[i] = RangeCQ{Head: cq.Head, Atoms: flat[n:len(flat):len(flat)]}
	}
	for i := range flat {
		flat[i].S.Arg, flat[i].O.Arg = flat[i].S.Arg.Bind(params), flat[i].O.Arg.Bind(params)
	}
	return out
}
