// Package query defines the query languages of the paper: basic graph
// pattern (BGP) queries a.k.a. conjunctive queries (CQs), unions of CQs
// (UCQs), and joins of UCQs (JUCQs) induced by query covers. It also
// provides the SPARQL-style and rule-style parsers, canonicalization for
// set-semantics deduplication, and the cover structure explored by GCov.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dict"
	"repro/internal/storage"
)

// FreshVarPrefix is the name prefix reserved for variables invented by the
// reformulation rules (rules 2, 3, 6, 7, 10, 11 introduce fresh existential
// variables); the parsers reject user variables with this prefix.
const FreshVarPrefix = "_f"

// Arg is one position of a query atom: either a constant (dictionary ID)
// or a variable (non-empty name).
type Arg struct {
	ID  dict.ID // constant when Var == ""
	Var string  // variable name when non-empty
}

// Constant builds a constant argument.
func Constant(id dict.ID) Arg { return Arg{ID: id} }

// Variable builds a variable argument.
func Variable(name string) Arg { return Arg{Var: name} }

// IsVar reports whether the argument is a variable.
func (a Arg) IsVar() bool { return a.Var != "" }

// Atom is one triple pattern of a BGP: subject, property, object.
type Atom struct {
	S, P, O Arg
}

// Args returns the three arguments in (S, P, O) order.
func (t Atom) Args() [3]Arg { return [3]Arg{t.S, t.P, t.O} }

// WithArgs rebuilds the atom from three arguments.
func WithArgs(args [3]Arg) Atom { return Atom{S: args[0], P: args[1], O: args[2]} }

// Pattern converts a fully-applied atom to a storage pattern; variables map
// to wildcards.
func (t Atom) Pattern() storage.Pattern {
	pat := storage.Pattern{}
	if !t.S.IsVar() {
		pat.S = t.S.ID
	}
	if !t.P.IsVar() {
		pat.P = t.P.ID
	}
	if !t.O.IsVar() {
		pat.O = t.O.ID
	}
	return pat
}

// Vars appends the variable names of the atom to dst, in S, P, O order.
func (t Atom) Vars(dst []string) []string {
	for _, a := range t.Args() {
		if a.IsVar() {
			dst = append(dst, a.Var)
		}
	}
	return dst
}

// Substitute replaces variable occurrences per the substitution and returns
// the rewritten atom.
func (t Atom) Substitute(sub map[string]Arg) Atom {
	args := t.Args()
	for i, a := range args {
		if a.IsVar() {
			if rep, ok := sub[a.Var]; ok {
				args[i] = rep
			}
		}
	}
	return WithArgs(args)
}

// CQ is a conjunctive query: head arguments (aligned with the owning
// query's head variable names — reformulation rules may bind a head
// variable to a constant) over a BGP body.
type CQ struct {
	Head  []Arg
	Atoms []Atom
}

// NewCQ builds a CQ whose head is the given variable names.
func NewCQ(headVars []string, atoms []Atom) CQ {
	head := make([]Arg, len(headVars))
	for i, v := range headVars {
		head[i] = Variable(v)
	}
	return CQ{Head: head, Atoms: atoms}
}

// Vars returns the set of variable names occurring in the body, in first-
// occurrence order.
func (q CQ) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range q.Atoms {
		for _, a := range t.Args() {
			if a.IsVar() && !seen[a.Var] {
				seen[a.Var] = true
				out = append(out, a.Var)
			}
		}
	}
	return out
}

// Validate checks query safety: at least one atom, and every head variable
// occurs in the body.
func (q CQ) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query: empty body")
	}
	body := map[string]bool{}
	for _, v := range q.Vars() {
		body[v] = true
	}
	for _, h := range q.Head {
		if h.IsVar() && !body[h.Var] {
			return fmt.Errorf("query: head variable %s does not occur in the body", h.Var)
		}
	}
	return nil
}

// Substitute applies a substitution to head and body.
func (q CQ) Substitute(sub map[string]Arg) CQ {
	head := make([]Arg, len(q.Head))
	for i, a := range q.Head {
		head[i] = a
		if a.IsVar() {
			if rep, ok := sub[a.Var]; ok {
				head[i] = rep
			}
		}
	}
	atoms := make([]Atom, len(q.Atoms))
	for i, t := range q.Atoms {
		atoms[i] = t.Substitute(sub)
	}
	return CQ{Head: head, Atoms: atoms}
}

// Clone deep-copies the CQ.
func (q CQ) Clone() CQ {
	return CQ{Head: append([]Arg(nil), q.Head...), Atoms: append([]Atom(nil), q.Atoms...)}
}

// CanonicalKey renders the CQ with variables renamed in first-occurrence
// order (head first, then body, then atoms sorted), producing a key equal
// for CQs identical up to variable renaming and atom reordering. Used for
// set-semantics deduplication of reformulations.
func (q CQ) CanonicalKey() string {
	// First pass: rename by first occurrence with atoms in current order.
	key := func(order []int) string {
		names := map[string]int{}
		next := 0
		var sb strings.Builder
		renderArg := func(a Arg) {
			if a.IsVar() {
				n, ok := names[a.Var]
				if !ok {
					n = next
					names[a.Var] = n
					next++
				}
				sb.WriteString("?" + strconv.Itoa(n))
			} else {
				sb.WriteString("#" + strconv.FormatUint(uint64(a.ID), 10))
			}
			sb.WriteByte(' ')
		}
		for _, h := range q.Head {
			renderArg(h)
		}
		sb.WriteByte('|')
		for _, i := range order {
			t := q.Atoms[i]
			renderArg(t.S)
			renderArg(t.P)
			renderArg(t.O)
			sb.WriteByte('.')
		}
		return sb.String()
	}
	// Canonical atom order: sort atoms by a renaming-independent shape
	// string (variables erased, constants kept). Atoms sharing a shape are
	// only distinguishable through their variable wiring, so the key is
	// the lexicographic minimum over permutations within equal-shape
	// groups — bounded: beyond maxPerms candidate orders the stable order
	// is used (dedup then stays sound, merely less aggressive).
	const maxPerms = 1024
	order := make([]int, len(q.Atoms))
	for i := range order {
		order[i] = i
	}
	shape := make([]string, len(q.Atoms))
	for i, t := range q.Atoms {
		var sb strings.Builder
		for _, a := range t.Args() {
			if a.IsVar() {
				sb.WriteString("?")
			} else {
				sb.WriteString("#" + strconv.FormatUint(uint64(a.ID), 10))
			}
			sb.WriteByte(' ')
		}
		shape[i] = sb.String()
	}
	sort.SliceStable(order, func(i, j int) bool { return shape[order[i]] < shape[order[j]] })

	// Identify runs of equal shapes and count the candidate orders.
	var groups [][2]int // [start, end) into order
	perms := 1
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && shape[order[j]] == shape[order[i]] {
			j++
		}
		groups = append(groups, [2]int{i, j})
		for k := 2; k <= j-i; k++ {
			perms *= k
			if perms > maxPerms {
				break
			}
		}
		i = j
	}
	if perms <= 1 || perms > maxPerms {
		return key(order)
	}
	best := ""
	var rec func(gi int)
	rec = func(gi int) {
		if gi == len(groups) {
			k := key(order)
			if best == "" || k < best {
				best = k
			}
			return
		}
		lo, hi := groups[gi][0], groups[gi][1]
		permute(order, lo, hi, func() { rec(gi + 1) })
	}
	rec(0)
	return best
}

// permute enumerates permutations of order[lo:hi] in place, calling fn for
// each, and restores the original arrangement before returning.
func permute(order []int, lo, hi int, fn func()) {
	if hi-lo <= 1 {
		fn()
		return
	}
	var rec func(k int)
	rec = func(k int) {
		if k == hi {
			fn()
			return
		}
		for i := k; i < hi; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(lo)
}

// UCQ is a union of conjunctive queries with a shared head-variable list;
// each member CQ carries its own head arguments (variables possibly bound
// to constants by the reformulation rules).
type UCQ struct {
	HeadNames []string
	CQs       []CQ
}

// Dedup removes duplicate CQs (up to variable renaming and atom order),
// preserving first occurrences.
func (u *UCQ) Dedup() {
	seen := make(map[string]bool, len(u.CQs))
	out := u.CQs[:0]
	for _, q := range u.CQs {
		k := q.CanonicalKey()
		if !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	u.CQs = out
}

// Size returns the number of member CQs.
func (u *UCQ) Size() int { return len(u.CQs) }

// Atoms returns the total number of atoms across member CQs.
func (u *UCQ) Atoms() int {
	n := 0
	for _, q := range u.CQs {
		n += len(q.Atoms)
	}
	return n
}

// Cover is a query cover: a set of (possibly overlapping) non-empty
// fragments, each a sorted set of atom indexes of the covered CQ, whose
// union is all atom indexes (§4, "query covering").
type Cover [][]int

// Validate checks the cover against a query with n atoms: fragments
// non-empty, indexes in range and sorted, union complete.
func (c Cover) Validate(n int) error {
	covered := make([]bool, n)
	for fi, frag := range c {
		if len(frag) == 0 {
			return fmt.Errorf("cover: fragment %d is empty", fi)
		}
		for i, idx := range frag {
			if idx < 0 || idx >= n {
				return fmt.Errorf("cover: fragment %d references atom %d out of range [0,%d)", fi, idx, n)
			}
			if i > 0 && frag[i-1] >= idx {
				return fmt.Errorf("cover: fragment %d is not strictly sorted", fi)
			}
			covered[idx] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("cover: atom %d not covered", i)
		}
	}
	return nil
}

// Key renders the cover canonically (fragments sorted), for dedup during
// GCov's search.
func (c Cover) Key() string {
	frs := make([]string, len(c))
	for i, f := range c {
		parts := make([]string, len(f))
		for j, idx := range f {
			parts[j] = fmt.Sprint(idx)
		}
		frs[i] = strings.Join(parts, ",")
	}
	sort.Strings(frs)
	return strings.Join(frs, "|")
}

// Clone deep-copies the cover.
func (c Cover) Clone() Cover {
	out := make(Cover, len(c))
	for i, f := range c {
		out[i] = append([]int(nil), f...)
	}
	return out
}

// String renders the cover as {{0,2},{1,3}}.
func (c Cover) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, f := range c {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('{')
		for j, idx := range f {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "t%d", idx+1)
		}
		sb.WriteByte('}')
	}
	sb.WriteByte('}')
	return sb.String()
}

// SingletonCover returns the cover with each atom alone in a fragment —
// GCov's starting point; its JUCQ reformulation is the SCQ of [15].
func SingletonCover(n int) Cover {
	c := make(Cover, n)
	for i := range c {
		c[i] = []int{i}
	}
	return c
}

// OneBlockCover returns the cover with all atoms in one fragment; its JUCQ
// reformulation is the plain UCQ reformulation.
func OneBlockCover(n int) Cover {
	f := make([]int, n)
	for i := range f {
		f[i] = i
	}
	return Cover{f}
}

// Fragment is one subquery of a JUCQ: the fragment's atoms (a subquery of
// the covered CQ), its head (the variables it must expose: query head
// variables plus variables shared with other fragments), and a complete
// reformulation of it — any one computes the same answers, so the fragment
// is identified by its CQ alone.
type Fragment struct {
	AtomIndexes []int
	CQ          CQ
	// UCQ is the fragment's UCQ reformulation; in the range form it has no
	// members, only the head names.
	UCQ UCQ
	// Members is what the executor evaluates: UCQ's members merged
	// (UCQ.Merged), or the range reformulation's CQs, computed once where the
	// fragment is built. Nil: UCQ's members one by one.
	Members []RangeCQ
}

// JUCQ is a join of UCQs: the query answering strategy induced by a cover
// (§4). Evaluating each fragment's UCQ and joining the results on the
// shared variables, then projecting the head, yields the original query's
// answer.
type JUCQ struct {
	HeadNames []string
	Cover     Cover
	Fragments []Fragment
}

// FragmentCQ builds the subquery of q induced by the fragment atom set:
// its head exposes (query head variables ∪ variables shared with atoms
// outside the fragment) ∩ fragment variables, in first-occurrence order.
func FragmentCQ(q CQ, frag []int) CQ {
	inFrag := map[int]bool{}
	for _, i := range frag {
		inFrag[i] = true
	}
	fragVars := map[string]bool{}
	var fragAtoms []Atom
	for _, i := range frag {
		fragAtoms = append(fragAtoms, q.Atoms[i])
		for _, a := range q.Atoms[i].Args() {
			if a.IsVar() {
				fragVars[a.Var] = true
			}
		}
	}
	needed := map[string]bool{}
	for _, h := range q.Head {
		if h.IsVar() {
			needed[h.Var] = true
		}
	}
	for i, t := range q.Atoms {
		if inFrag[i] {
			continue
		}
		for _, a := range t.Args() {
			if a.IsVar() {
				needed[a.Var] = true
			}
		}
	}
	var head []string
	seen := map[string]bool{}
	for _, t := range fragAtoms {
		for _, a := range t.Args() {
			if a.IsVar() && needed[a.Var] && !seen[a.Var] {
				seen[a.Var] = true
				head = append(head, a.Var)
			}
		}
	}
	return NewCQ(head, fragAtoms)
}

// HeadVarNames extracts the head variable names of a CQ whose head is all
// variables (the original, un-reformulated query).
func HeadVarNames(q CQ) []string {
	out := make([]string, 0, len(q.Head))
	for _, h := range q.Head {
		if h.IsVar() {
			out = append(out, h.Var)
		}
	}
	return out
}
