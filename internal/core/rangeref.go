package core

import (
	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/schema"
	"repro/internal/storage"
)

// RangeReformulator rewrites a CQ into a union of *range* CQs: where the
// 13-rule UCQ reformulation enumerates one atomic CQ per schema-closure
// element (blowing up multiplicatively, 318,096 CQs for Example 1), the
// range reformulator emits per original atom a handful of alternatives
// whose positions are ID intervals under the hierarchy-aware encoding, plus
// hierarchy expansions for class/property variables. The union it produces
// is equivalent to the UCQ reformulation — member by member, each
// alternative stands for one family of the UCQ's per-atom reformulations:
//
//   - rule 1 closure  -> an O-range over the subtree of the class;
//   - rules 2/3 (6/7, 10/11) closures -> a P-range over the properties
//     whose domain (range) closure contains the class;
//   - rules 5/8/9 (class/property variables) -> an uncaptured scan plus an
//     upward hierarchy Expansion replaying the per-constant bindings.
type RangeReformulator struct {
	s *schema.Schema
	d *dict.Dict

	typeID dict.ID

	// UseDomainRange mirrors Reformulator.UseDomainRange: disabling it
	// drops the domain/range alternatives (incomplete reformulation).
	UseDomainRange bool

	// Upward-closure tables shared by the Expansions (never mutated).
	subClassUpTbl map[dict.ID][]dict.ID
	subPropUpTbl  map[dict.ID][]dict.ID
	domUpTbl      map[dict.ID][]dict.ID // property -> DomainClosure
	rngUpTbl      map[dict.ID][]dict.ID // property -> RangeClosure

	// Properties with a non-empty domain (range) closure, as merged ranges.
	domPropRanges []storage.IDRange
	rngPropRanges []storage.IDRange

	// class c -> merged ranges of {p : c ∈ DomainClosure(p)} — the closure
	// under rules 2 and 4 of the properties entailing membership in c.
	domPropsFor map[dict.ID][]storage.IDRange
	rngPropsFor map[dict.ID][]storage.IDRange
}

// NewRangeReformulator precomputes the hierarchy tables for the schema.
func NewRangeReformulator(s *schema.Schema) *RangeReformulator {
	r := &RangeReformulator{
		s:              s,
		d:              s.Dict(),
		typeID:         s.Dict().EncodeIRI(rdf.TypeIRI),
		UseDomainRange: true,
		subClassUpTbl:  map[dict.ID][]dict.ID{},
		subPropUpTbl:   map[dict.ID][]dict.ID{},
		domUpTbl:       map[dict.ID][]dict.ID{},
		rngUpTbl:       map[dict.ID][]dict.ID{},
		domPropsFor:    map[dict.ID][]storage.IDRange{},
		rngPropsFor:    map[dict.ID][]storage.IDRange{},
	}
	for _, c := range s.Classes() {
		if up := s.SuperClasses(c); len(up) > 0 {
			r.subClassUpTbl[c] = up
		}
	}
	domProps := make([]dict.ID, 0, 8)
	rngProps := make([]dict.ID, 0, 8)
	domFor := map[dict.ID][]dict.ID{}
	rngFor := map[dict.ID][]dict.ID{}
	for _, p := range s.Properties() {
		if up := s.SuperProperties(p); len(up) > 0 {
			r.subPropUpTbl[p] = up
		}
		if cs := s.DomainClosure(p); len(cs) > 0 {
			r.domUpTbl[p] = cs
			domProps = append(domProps, p)
			for _, c := range cs {
				domFor[c] = append(domFor[c], p)
			}
		}
		if cs := s.RangeClosure(p); len(cs) > 0 {
			r.rngUpTbl[p] = cs
			rngProps = append(rngProps, p)
			for _, c := range cs {
				rngFor[c] = append(rngFor[c], p)
			}
		}
	}
	r.domPropRanges = storage.MergeIDs(domProps)
	r.rngPropRanges = storage.MergeIDs(rngProps)
	for c, ps := range domFor {
		r.domPropsFor[c] = storage.MergeIDs(ps)
	}
	for c, ps := range rngFor {
		r.rngPropsFor[c] = storage.MergeIDs(ps)
	}
	return r
}

// rangeAlt is one per-atom alternative: a range atom plus the static
// binding it imposes on the original query's variables (property variables
// bound to τ by the rule-9 family; everything else is carried by columns
// and expansions rather than bindings).
type rangeAlt struct {
	atom    query.RangeAtom
	binding Binding
}

func plainArg(a query.Arg) query.RangeArg { return query.RangeArg{Arg: a} }

func rangesArg(rs []storage.IDRange) query.RangeArg { return query.RangeArg{Ranges: rs} }

func captureArg(v string, rs []storage.IDRange) query.RangeArg {
	return query.RangeArg{Arg: query.Variable(v), Ranges: rs}
}

// subtreeRanges returns the merged ranges of {root} ∪ down — one range per
// contiguous run, a single range when the interval encoding holds.
func subtreeRanges(root dict.ID, down []dict.ID) []storage.IDRange {
	ids := make([]dict.ID, 0, len(down)+1)
	ids = append(ids, root)
	ids = append(ids, down...)
	return storage.MergeIDs(ids)
}

// atomAlternatives computes the range alternatives of the atom at index
// idx. Together (unioned, with expansions applied) they are equivalent to
// the closure AtomReformulations computes atom by atom.
func (r *RangeReformulator) atomAlternatives(a query.Atom, idx int) []rangeAlt {
	var out []rangeAlt
	add := func(atom query.RangeAtom, b Binding) {
		out = append(out, rangeAlt{atom: atom, binding: b})
	}
	fresh := query.Variable(freshVar(idx))

	switch {
	case !a.P.IsVar() && a.P.ID == r.typeID:
		if !a.O.IsVar() {
			// Rules 1–3: subtree range on O, domain/range property ranges.
			c := a.O.ID
			add(query.RangeAtom{S: plainArg(a.S), P: plainArg(a.P),
				O: rangesArg(subtreeRanges(c, r.s.SubClasses(c)))}, nil)
			if r.UseDomainRange {
				if rs := r.domPropsFor[c]; len(rs) > 0 {
					add(query.RangeAtom{S: plainArg(a.S), P: rangesArg(rs), O: plainArg(fresh)}, nil)
				}
				if rs := r.rngPropsFor[c]; len(rs) > 0 {
					add(query.RangeAtom{S: plainArg(fresh), P: rangesArg(rs), O: plainArg(a.S)}, nil)
				}
			}
			return out
		}
		// Rules 5–7 (class variable x): capture the matched class and
		// expand upward; reflexivity covers the identity reformulation.
		x := a.O.Var
		w := freshVar(idx) + "w"
		add(query.RangeAtom{S: plainArg(a.S), P: plainArg(a.P), O: plainArg(query.Variable(w)),
			Expand: &query.Expansion{In: w, Out: query.Variable(x), Table: r.subClassUpTbl, Reflexive: true}}, nil)
		if r.UseDomainRange {
			if len(r.domPropRanges) > 0 {
				pv := freshVar(idx) + "d"
				add(query.RangeAtom{S: plainArg(a.S), P: captureArg(pv, r.domPropRanges), O: plainArg(fresh),
					Expand: &query.Expansion{In: pv, Out: query.Variable(x), Table: r.domUpTbl}}, nil)
			}
			if len(r.rngPropRanges) > 0 {
				pr := freshVar(idx) + "g"
				add(query.RangeAtom{S: plainArg(fresh), P: captureArg(pr, r.rngPropRanges), O: plainArg(a.S),
					Expand: &query.Expansion{In: pr, Out: query.Variable(x), Table: r.rngUpTbl}}, nil)
			}
		}
		return out

	case !a.P.IsVar():
		if rdf.IsSchemaProperty(r.d.Decode(a.P.ID).Value) {
			// Schema-level atoms: identity only, answered against the
			// stored closed schema (as in the UCQ reformulation).
			add(query.RangeAtom{S: plainArg(a.S), P: plainArg(a.P), O: plainArg(a.O)}, nil)
			return out
		}
		// Rule 4: subtree range on P.
		p := a.P.ID
		add(query.RangeAtom{S: plainArg(a.S), P: rangesArg(subtreeRanges(p, r.s.SubProperties(p))),
			O: plainArg(a.O)}, nil)
		return out

	default:
		// Rules 8–11 (property variable x).
		x := a.P.Var
		q := freshVar(idx) + "q"
		add(query.RangeAtom{S: plainArg(a.S), P: plainArg(query.Variable(q)), O: plainArg(a.O),
			Expand: &query.Expansion{In: q, Out: query.Variable(x), Table: r.subPropUpTbl, Reflexive: true}}, nil)
		switch {
		case a.O.IsVar() && a.O.Var != x:
			// Rule 9 family: x := τ, the object unified with the entailed
			// class. Strict (non-reflexive): the identity is already
			// covered by the capture alternative above with x := τ.
			y := a.O.Var
			cw := freshVar(idx) + "c"
			add(query.RangeAtom{S: plainArg(a.S), P: plainArg(query.Constant(r.typeID)),
				O:      plainArg(query.Variable(cw)),
				Expand: &query.Expansion{In: cw, Out: query.Variable(y), Table: r.subClassUpTbl}},
				Binding{x: r.typeID})
			if r.UseDomainRange {
				if len(r.domPropRanges) > 0 {
					pv := freshVar(idx) + "d"
					add(query.RangeAtom{S: plainArg(a.S), P: captureArg(pv, r.domPropRanges), O: plainArg(fresh),
						Expand: &query.Expansion{In: pv, Out: query.Variable(y), Table: r.domUpTbl}},
						Binding{x: r.typeID})
				}
				if len(r.rngPropRanges) > 0 {
					pr := freshVar(idx) + "g"
					add(query.RangeAtom{S: plainArg(fresh), P: captureArg(pr, r.rngPropRanges), O: plainArg(a.S),
						Expand: &query.Expansion{In: pr, Out: query.Variable(y), Table: r.rngUpTbl}},
						Binding{x: r.typeID})
				}
			}
		case !a.O.IsVar():
			c := a.O.ID
			if subs := r.s.SubClasses(c); len(subs) > 0 {
				add(query.RangeAtom{S: plainArg(a.S), P: plainArg(query.Constant(r.typeID)),
					O: rangesArg(storage.MergeIDs(append([]dict.ID(nil), subs...)))},
					Binding{x: r.typeID})
			}
			if r.UseDomainRange {
				if rs := r.domPropsFor[c]; len(rs) > 0 {
					add(query.RangeAtom{S: plainArg(a.S), P: rangesArg(rs), O: plainArg(fresh)},
						Binding{x: r.typeID})
				}
				if rs := r.rngPropsFor[c]; len(rs) > 0 {
					add(query.RangeAtom{S: plainArg(fresh), P: rangesArg(rs), O: plainArg(a.S)},
						Binding{x: r.typeID})
				}
			}
		}
		// a.O.Var == x (atom s x x): only the capture alternative applies,
		// mirroring the UCQ reformulator.
		return out
	}
}

// Reformulate builds the range-UCQ reformulation of q: the consistent
// combinations of the per-atom alternatives, with static bindings
// substituted into the other atoms and the head exactly as the UCQ
// enumeration does.
func (r *RangeReformulator) Reformulate(q query.CQ) query.RangeUCQ {
	perAtom := make([][]rangeAlt, len(q.Atoms))
	for i, a := range q.Atoms {
		perAtom[i] = r.atomAlternatives(a, i)
	}
	u := query.RangeUCQ{HeadNames: query.HeadVarNames(q)}
	parts := func(alt rangeAlt) (query.RangeAtom, Binding) { return alt.atom, alt.binding }
	combine(q.Head, perAtom, parts, func(head []query.Arg, atoms []query.RangeAtom) bool {
		u.CQs = append(u.CQs, query.RangeCQ{Head: head, Atoms: append([]query.RangeAtom(nil), atoms...)})
		return true
	})
	return u
}
