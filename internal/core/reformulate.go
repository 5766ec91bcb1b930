// Package core implements the paper's primary contribution: reformulation-
// based query answering for the database fragment of RDF. It provides
//
//   - the 13-rule CQ→UCQ reformulation algorithm of [9] (Goasdoué et al.,
//     EDBT 2013), which rewrites a conjunctive query w.r.t. the RDFS
//     constraints so that evaluating the result against the explicit data
//     yields the complete answer: q(db∞) = qref(db);
//   - the SCQ reformulation of [15] (join of unions of atomic queries);
//   - cover-based JUCQ reformulations (§4, "query covering"): any cover of
//     the query's atoms induces a join of per-fragment UCQs equivalent to
//     the UCQ reformulation;
//   - GCov (gcov.go), the greedy cost-based cover search.
//
// Reformulation is compositional: the UCQ reformulation of a CQ is the
// consistent combination of the single-atom reformulations of its atoms
// (each a pair of a rewritten atom and a binding of the original atom's
// variables to schema constants). This both matches the semantics of the
// rule fixpoint and makes the blow-up explicit: the UCQ size is the product
// of the per-atom reformulation counts (318,096 for the paper's Example 1).
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/schema"
)

// Binding maps variables of the original query to constants chosen by the
// reformulation rules (rules 5–13 bind class/property variables).
type Binding map[string]dict.ID

// AtomRef is one single-atom reformulation: the rewritten atom (with its
// binding already applied) plus the binding itself.
type AtomRef struct {
	Atom    query.Atom
	Binding Binding
}

// Reformulator rewrites queries w.r.t. one closed schema.
type Reformulator struct {
	s *schema.Schema
	d *dict.Dict

	typeID dict.ID
	// schemaProps are rdfs:subClassOf, rdfs:subPropertyOf, rdfs:domain and
	// rdfs:range, in that order.
	schemaProps [4]dict.ID

	// UseDomainRange enables rules 2, 3, 6, 7, 10 and 11. Disabling it
	// reproduces the *incomplete* reformulation of systems like Virtuoso
	// and AllegroGraph, which ignore the domain/range constraints [6].
	UseDomainRange bool
}

// NewReformulator returns a complete reformulator for the schema.
func NewReformulator(s *schema.Schema) *Reformulator {
	d := s.Dict()
	return &Reformulator{
		s:      s,
		d:      d,
		typeID: d.EncodeIRI(rdf.TypeIRI),
		schemaProps: [4]dict.ID{d.EncodeIRI(rdf.SubClassOfIRI), d.EncodeIRI(rdf.SubPropertyOfIRI),
			d.EncodeIRI(rdf.DomainIRI), d.EncodeIRI(rdf.RangeIRI)},
		UseDomainRange: true,
	}
}

// NewIncompleteReformulator returns a reformulator applying only the
// subClassOf/subPropertyOf rules — the fixed incomplete Ref strategy of the
// native RDF platforms the demo integrates.
func NewIncompleteReformulator(s *schema.Schema) *Reformulator {
	r := NewReformulator(s)
	r.UseDomainRange = false
	return r
}

// freshVar returns the reserved fresh-variable name for the original atom
// at index idx. Rules 2/3 (and 6/7, 10/11) introduce at most one
// existential variable per atom, so a single name per atom suffices; names
// are namespaced by atom index so combinations never collide.
func freshVar(idx int) string { return fmt.Sprintf("%s%d", query.FreshVarPrefix, idx) }

// AtomReformulations computes the closure of single-atom reformulations of
// the atom at index atomIdx of the query: every (atom', binding) such that
// matching atom' against the explicit triples, under the binding, accounts
// for one way the original atom can hold in the saturated graph. The first
// entry is always the identity.
func (r *Reformulator) AtomReformulations(a query.Atom, atomIdx int) []AtomRef {
	start := AtomRef{Atom: a, Binding: Binding{}}
	out := []AtomRef{start}
	seen := map[string]bool{refKey(start): true}
	queue := []AtomRef{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range r.expand(cur, atomIdx) {
			k := refKey(next)
			if !seen[k] {
				seen[k] = true
				out = append(out, next)
				queue = append(queue, next)
			}
		}
	}
	return out
}

// expand applies every reformulation rule once to the state's atom,
// producing successor states (rule numbering follows DESIGN.md §4).
func (r *Reformulator) expand(cur AtomRef, atomIdx int) []AtomRef {
	a := cur.Atom
	var out []AtomRef

	yield := func(atom query.Atom, extra Binding) {
		merged := make(Binding, len(cur.Binding)+len(extra))
		for k, v := range cur.Binding {
			merged[k] = v
		}
		sub := map[string]query.Arg{}
		for k, v := range extra {
			if old, ok := merged[k]; ok && old != v {
				return // inconsistent with an earlier binding of this atom
			}
			merged[k] = v
			sub[k] = query.Constant(v)
		}
		if len(sub) > 0 {
			atom = atom.Substitute(sub)
		}
		out = append(out, AtomRef{Atom: atom, Binding: merged})
	}

	fresh := query.Variable(freshVar(atomIdx))

	switch {
	case !a.P.IsVar() && a.P.ID == r.typeID:
		if !a.O.IsVar() {
			c := a.O.ID
			// Rule 1: c' ⊑sc c.
			for _, sub := range r.s.SubClasses(c) {
				yield(query.Atom{S: a.S, P: a.P, O: query.Constant(sub)}, nil)
			}
			if r.UseDomainRange {
				// Rule 2: p ←d c.
				for _, p := range r.s.PropertiesWithDomain(c) {
					yield(query.Atom{S: a.S, P: query.Constant(p), O: fresh}, nil)
				}
				// Rule 3: p ←r c.
				for _, p := range r.s.PropertiesWithRange(c) {
					yield(query.Atom{S: fresh, P: query.Constant(p), O: a.S}, nil)
				}
			}
			return out
		}
		// Class-variable rules 5–7: bind the class variable x := c.
		x := a.O.Var
		for _, c := range r.s.Classes() {
			// Rule 5: body (s τ c'), c' ⊏sc c.
			for _, sub := range r.s.SubClasses(c) {
				yield(query.Atom{S: a.S, P: a.P, O: query.Constant(sub)}, Binding{x: c})
			}
			if r.UseDomainRange {
				// Rule 6: body (s p y), p ←d c.
				for _, p := range r.s.PropertiesWithDomain(c) {
					yield(query.Atom{S: a.S, P: query.Constant(p), O: fresh}, Binding{x: c})
				}
				// Rule 7: body (y p s), p ←r c.
				for _, p := range r.s.PropertiesWithRange(c) {
					yield(query.Atom{S: fresh, P: query.Constant(p), O: a.S}, Binding{x: c})
				}
			}
		}
		return out

	case !a.P.IsVar():
		if rdf.IsSchemaProperty(r.d.Decode(a.P.ID).Value) {
			// Schema-level atoms are answered against the maintained
			// closed schema; transitive closure is not UCQ-expressible,
			// so no rule applies.
			return out
		}
		// Rule 4: p' ⊑sp p.
		for _, sub := range r.s.SubProperties(a.P.ID) {
			yield(query.Atom{S: a.S, P: query.Constant(sub), O: a.O}, nil)
		}
		return out

	default:
		// Property-variable rules 8–11: bind the property variable x.
		x := a.P.Var
		// Rule 8: x := p, body (s p' o), p' ⊏sp p.
		for _, p := range r.s.Properties() {
			for _, sub := range r.s.SubProperties(p) {
				yield(query.Atom{S: a.S, P: query.Constant(sub), O: a.O}, Binding{x: p})
			}
		}
		// Rules 9–11: x := τ, with the object unified with the entailed
		// class c.
		switch {
		case a.O.IsVar() && a.O.Var != x:
			y := a.O.Var
			for _, c := range r.s.Classes() {
				for _, sub := range r.s.SubClasses(c) {
					yield(query.Atom{S: a.S, P: query.Constant(r.typeID), O: query.Constant(sub)},
						Binding{x: r.typeID, y: c})
				}
				if r.UseDomainRange {
					for _, p := range r.s.PropertiesWithDomain(c) {
						yield(query.Atom{S: a.S, P: query.Constant(p), O: fresh},
							Binding{x: r.typeID, y: c})
					}
					for _, p := range r.s.PropertiesWithRange(c) {
						yield(query.Atom{S: fresh, P: query.Constant(p), O: a.S},
							Binding{x: r.typeID, y: c})
					}
				}
			}
		case !a.O.IsVar():
			c := a.O.ID
			for _, sub := range r.s.SubClasses(c) {
				yield(query.Atom{S: a.S, P: query.Constant(r.typeID), O: query.Constant(sub)},
					Binding{x: r.typeID})
			}
			if r.UseDomainRange {
				for _, p := range r.s.PropertiesWithDomain(c) {
					yield(query.Atom{S: a.S, P: query.Constant(p), O: fresh},
						Binding{x: r.typeID})
				}
				for _, p := range r.s.PropertiesWithRange(c) {
					yield(query.Atom{S: fresh, P: query.Constant(p), O: a.S},
						Binding{x: r.typeID})
				}
			}
		}
		// a.O.Var == x (atom s x x): the entailed-type rules would
		// require x = τ = class, impossible under schema validation.
		return out
	}
}

// refKey canonicalizes an AtomRef for deduplication. Fresh variables keep
// their reserved names (stable per atom index), so plain rendering works.
func refKey(ar AtomRef) string {
	var sb strings.Builder
	for _, arg := range ar.Atom.Args() {
		if arg.IsVar() {
			sb.WriteByte('?')
			sb.WriteString(arg.Var)
		} else {
			fmt.Fprintf(&sb, "#%d", arg.ID)
		}
		sb.WriteByte(' ')
	}
	keys := make([]string, 0, len(ar.Binding))
	for k := range ar.Binding {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "|%s=%d", k, ar.Binding[k])
	}
	return sb.String()
}

// EnumerateCQ streams every CQ of the UCQ reformulation of q to fn (in
// deterministic order), stopping early when fn returns false. Member CQs
// are produced without global deduplication; duplicates can only arise
// through shared bound variables and are harmless under set semantics.
// It reports whether enumeration ran to completion.
func (r *Reformulator) EnumerateCQ(q query.CQ, fn func(query.CQ) bool) bool {
	perAtom := make([][]AtomRef, len(q.Atoms))
	for i, a := range q.Atoms {
		perAtom[i] = r.AtomReformulations(a, i)
	}
	return r.enumerate(q, perAtom, fn)
}

func (r *Reformulator) enumerate(q query.CQ, perAtom [][]AtomRef, fn func(query.CQ) bool) bool {
	parts := func(ar AtomRef) (query.Atom, Binding) { return ar.Atom, ar.Binding }
	return combine(q.Head, perAtom, parts, func(head []query.Arg, atoms []query.Atom) bool {
		return fn(query.CQ{Head: head, Atoms: append([]query.Atom(nil), atoms...)})
	})
}

// combine is the combination loop of both reformulators: every choice of one
// alternative per atom of a query, in mixed-radix order (the last atom's
// choice varies fastest), whose bindings agree. parts returns an
// alternative's atom and binding. The agreed binding is substituted into the
// chosen atoms and into head, whose bound variables become constants, and fn
// receives each combination — its atoms in a buffer the next one reuses.
// fn returning false stops the loop; combine reports whether it ran to
// completion.
func combine[T any, A interface{ Substitute(map[string]query.Arg) A }](
	head []query.Arg, perAtom [][]T, parts func(T) (A, Binding), fn func(head []query.Arg, atoms []A) bool) bool {
	n := len(perAtom)
	choice := make([]int, n)
	atoms := make([]A, n)
	for {
		merged := Binding{}
		ok := true
		for i := 0; i < n && ok; i++ {
			_, b := parts(perAtom[i][choice[i]])
			for k, v := range b {
				if old, exists := merged[k]; exists && old != v {
					ok = false
					break
				}
				merged[k] = v
			}
		}
		if ok {
			sub := make(map[string]query.Arg, len(merged))
			for k, v := range merged {
				sub[k] = query.Constant(v)
			}
			for i := range atoms {
				atoms[i], _ = parts(perAtom[i][choice[i]])
				if len(sub) > 0 {
					atoms[i] = atoms[i].Substitute(sub)
				}
			}
			bound := make([]query.Arg, len(head))
			for i, h := range head {
				bound[i] = h
				if c, ok := merged[h.Var]; h.IsVar() && ok {
					bound[i] = query.Constant(c)
				}
			}
			if !fn(bound, atoms) {
				return false
			}
		}
		i := n - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(perAtom[i]) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return true
		}
	}
}

// ReformulateCQ materializes the full UCQ reformulation of q, deduplicated
// up to variable renaming.
func (r *Reformulator) ReformulateCQ(q query.CQ) query.UCQ {
	u := query.UCQ{HeadNames: query.HeadVarNames(q)}
	r.EnumerateCQ(q, func(cq query.CQ) bool {
		u.CQs = append(u.CQs, cq)
		return true
	})
	u.Dedup()
	return u
}

// CountCQ returns the number of distinct CQs in the UCQ reformulation of q
// without materializing their bodies beyond deduplication keys.
func (r *Reformulator) CountCQ(q query.CQ) int {
	seen := map[string]bool{}
	r.EnumerateCQ(q, func(cq query.CQ) bool {
		seen[cq.CanonicalKey()] = true
		return true
	})
	return len(seen)
}

// CombinationCount returns the raw number of per-atom reformulation
// combinations (the product of per-atom counts, before binding-consistency
// filtering and deduplication) along with the per-atom counts themselves —
// the quantities the paper quotes for Example 1.
func (r *Reformulator) CombinationCount(q query.CQ) (total int, perAtom []int) {
	total = 1
	perAtom = make([]int, len(q.Atoms))
	for i, a := range q.Atoms {
		n := len(r.AtomReformulations(a, i))
		perAtom[i] = n
		total *= n
	}
	return total, perAtom
}

// ReformulateJUCQ builds the JUCQ reformulation induced by the cover: each
// fragment's subquery is reformulated to a UCQ, and the fragment UCQs are
// joined on their shared variables (§4); each fragment carries its union
// merged, as the executor evaluates it (query.Fragment.Members).
// maxFragmentCQs, when positive, bounds any single fragment's UCQ size (an
// error reproduces the paper's "reformulated query too large" failures).
func (r *Reformulator) ReformulateJUCQ(q query.CQ, cover query.Cover, maxFragmentCQs int) (query.JUCQ, error) {
	if err := cover.Validate(len(q.Atoms)); err != nil {
		return query.JUCQ{}, err
	}
	j := query.JUCQ{HeadNames: query.HeadVarNames(q), Cover: cover.Clone()}
	for _, frag := range cover {
		fcq := query.FragmentCQ(q, frag)
		u := query.UCQ{HeadNames: query.HeadVarNames(fcq)}
		perAtom := make([][]AtomRef, len(fcq.Atoms))
		for i, ai := range frag {
			// Reuse the *original* atom indexes for fresh-variable
			// namespacing so overlapping fragments stay consistent.
			perAtom[i] = r.AtomReformulations(q.Atoms[ai], ai)
		}
		over := false
		r.enumerate(fcq, perAtom, func(cq query.CQ) bool {
			u.CQs = append(u.CQs, cq)
			if maxFragmentCQs > 0 && len(u.CQs) > maxFragmentCQs {
				over = true
				return false
			}
			return true
		})
		if over {
			return query.JUCQ{}, fmt.Errorf("core: fragment %v reformulation exceeds %d CQs", frag, maxFragmentCQs)
		}
		u.Dedup()
		j.Fragments = append(j.Fragments, query.Fragment{
			AtomIndexes: append([]int(nil), frag...),
			CQ:          fcq,
			UCQ:         u,
			Members:     u.Merged(),
		})
	}
	return j, nil
}

// ReformulateSCQ builds the semi-conjunctive reformulation of [15]: the
// JUCQ induced by the singleton cover (each atom reformulated alone, the
// per-atom unions joined).
func (r *Reformulator) ReformulateSCQ(q query.CQ) (query.JUCQ, error) {
	return r.ReformulateJUCQ(q, query.SingletonCover(len(q.Atoms)), 0)
}
