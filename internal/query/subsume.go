package query

import "slices"

// CQ subsumption and union minimization. A member CQ of a union is redundant
// when another member subsumes it: every answer it produces is already
// produced by the subsumer, so dropping it cannot change the union's answers
// (set semantics). Within a member, an atom is redundant when the member
// folds onto itself without it (its core, with the head fixed). The
// reformulation rules produce both: deriving `x type Person` through the
// domain of memberOf turns `x type Person, x memberOf D` into
// `x memberOf z, x memberOf D`, whose core `x memberOf D` contains every
// other member. A parameter slot (Lift) is a constant here, so what holds
// of a shape holds for every binding of it.
//
// General subsumes specific when there is a homomorphism h from general's
// terms to specific's terms that maps each atom of general onto an atom of
// specific, is the identity on constants, and maps general's head onto
// specific's head positionally. Then every answer of specific (on any graph)
// is an answer of general.

// searchBudget bounds the steps of one minimization: a pair of members
// compared, or an atom of a general CQ tried on an atom of a specific one.
// Deciding subsumption is NP-complete, and a rigid query — every pair of ten
// variables joined by one property, say — is its own core, so each of its
// checks would exhaust a search exponential in its variables. Once the budget
// is spent every check answers "not subsumed", which keeps an atom or a
// member: the union stays equivalent, merely less minimal. The largest
// minimization of the LUBM queries and Example 1, under any of their covers,
// takes under a fifth of it.
const searchBudget = 1 << 20

// hom is a partial homomorphism under construction: the variables bound so
// far, in binding order, so that backtracking truncates it, and the steps
// left of the budget. One is reused across the checks of a minimization.
type hom struct {
	bound []binding
	steps int
}

// binding maps one variable of the general CQ to a term of the specific one.
type binding struct {
	v string
	a Arg
}

// subsumes reports whether general subsumes specific with specific's atom
// skip (-1 for none) left out; false too once the budget is spent.
func (h *hom) subsumes(general, specific CQ, skip int) bool {
	if len(general.Head) != len(specific.Head) {
		return false
	}
	h.bound = h.bound[:0]
	for i, ga := range general.Head {
		if !h.bind(ga, specific.Head[i]) {
			return false
		}
	}
	return h.extend(general.Atoms, specific.Atoms, skip)
}

// bind extends h by ga ↦ sa: a constant maps only to itself, a bound
// variable only to what it is bound to.
func (h *hom) bind(ga, sa Arg) bool {
	if !ga.IsVar() {
		return !sa.IsVar() && sa.ID == ga.ID
	}
	for _, b := range h.bound {
		if b.v == ga.Var {
			return b.a == sa
		}
	}
	h.bound = append(h.bound, binding{ga.Var, sa})
	return true
}

// extend maps every atom of general onto some atom of specific other than
// skip, extending h by backtracking, one step per atom tried.
func (h *hom) extend(general, specific []Atom, skip int) bool {
	if len(general) == 0 {
		return true
	}
	mark := len(h.bound)
	ga := general[0].Args()
	for ti, target := range specific {
		if ti == skip {
			continue
		}
		if h.steps <= 0 {
			return false
		}
		h.steps--
		sa := target.Args()
		if h.bind(ga[0], sa[0]) && h.bind(ga[1], sa[1]) && h.bind(ga[2], sa[2]) &&
			h.extend(general[1:], specific, skip) {
			return true
		}
		h.bound = h.bound[:mark]
	}
	return false
}

// core returns q without the atoms it folds away: atom by atom, one is
// dropped when q maps into the rest with its head fixed. One pass suffices:
// an atom that cannot go from a CQ cannot go from an equivalent part of it.
// q's atoms are not written.
func (h *hom) core(q CQ) CQ {
	atoms, cloned := q.Atoms, false
	for i := 0; i < len(atoms) && len(atoms) > 1; {
		if !h.subsumes(CQ{Head: q.Head, Atoms: atoms}, CQ{Head: q.Head, Atoms: atoms}, i) {
			i++
			continue
		}
		if !cloned {
			atoms, cloned = slices.Clone(atoms), true
		}
		atoms = slices.Delete(atoms, i, i+1)
	}
	return CQ{Head: q.Head, Atoms: atoms}
}

// constKeys appends to dst the (position, constant) pairs of q's atoms,
// sorted and distinct: a general CQ's pairs are a subset of those of every
// CQ it subsumes.
func constKeys(dst []uint64, q CQ) []uint64 {
	n := len(dst)
	for _, t := range q.Atoms {
		for p, a := range t.Args() {
			if !a.IsVar() {
				dst = append(dst, uint64(p)<<32|uint64(a.ID))
			}
		}
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// subset reports whether the sorted a is a subset of the sorted b.
func subset(a, b []uint64) bool {
	for _, x := range a {
		i, found := slices.BinarySearch(b, x)
		if !found {
			return false
		}
		b = b[i+1:]
	}
	return true
}

// minimize reduces u to what of it runs: every member to its core, then
// the members another member subsumes dropped — of two that subsume each
// other, as members equal up to renaming do, the earlier stays, so no Dedup
// pass is needed. The members are taken in order against those kept so far,
// the earlier members no later one has yet been found to contain; every
// member taken is contained in a kept one. So the checks grow with the
// members times the kept ones, few when the union collapses, as
// reformulations do. A member's (position, constant) pairs not among
// another's rule out most pairs before any homomorphism is searched for,
// most of them at one AND: sigs hashes each member's pairs onto 64 bits. All
// of it within searchBudget steps; once they are spent, the members not yet
// taken stay.
func (u *UCQ) minimize() {
	h := hom{steps: searchBudget}
	for i, q := range u.CQs {
		u.CQs[i] = h.core(q)
	}
	var flat []uint64
	ends := make([]int, len(u.CQs)+1) // member i's pairs are flat[ends[i]:ends[i+1]]
	sigs := make([]uint64, len(u.CQs))
	for i, q := range u.CQs {
		flat = constKeys(flat, q)
		ends[i+1] = len(flat)
		for _, k := range flat[ends[i]:] {
			sigs[i] |= 1 << (k * 0x9e3779b97f4a7c15 >> 58)
		}
	}
	keys := func(i int) []uint64 { return flat[ends[i]:ends[i+1]] }
	contains := func(i, j int) bool {
		h.steps--
		return sigs[i]&^sigs[j] == 0 && subset(keys(i), keys(j)) && h.subsumes(u.CQs[i], u.CQs[j], -1)
	}
	kept := make([]int, 0, len(u.CQs))
	for j := range u.CQs {
		if h.steps > 0 {
			if slices.ContainsFunc(kept, func(i int) bool { return contains(i, j) }) {
				continue
			}
			kept = slices.DeleteFunc(kept, func(i int) bool { return contains(j, i) })
		}
		kept = append(kept, j)
	}
	out := u.CQs[:0]
	for _, i := range kept {
		out = append(out, u.CQs[i])
	}
	u.CQs = out
}
