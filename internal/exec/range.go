package exec

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/trace"
)

// The evaluator has one atom form, query.RangeAtom: a plain atom is a range
// atom with no Ranges and no Expand (query.LiftAtoms, CQ.Lift), and every
// operator takes it as such. This file holds what an atom needs only when it
// *has* an expansion — the post-join hierarchy expansion — plus the memo a
// union shares between its members.

// atomVars appends to vars, empty but for its capacity, the atom's distinct
// live variables (plain and capture) in first-occurrence order — the
// columns of its scan — and returns, per position, the column that position
// binds (-1: a constant, an uncaptured range or a dead position).
func atomVars(vars []string, a query.RangeAtom, dead uint8) ([]string, [3]int) {
	var col [3]int
	for i, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		col[i] = -1
		if !ra.Arg.IsVar() || dead&(1<<i) != 0 {
			continue
		}
		for c, v := range vars {
			if v == ra.Arg.Var {
				col[i] = c
			}
		}
		if col[i] == -1 {
			col[i] = len(vars)
			vars = append(vars, ra.Arg.Var)
		}
	}
	return vars, col
}

// deadPositions appends to dst, per atom of q, the mask of its positions
// (bit 0 subject, 1 property, 2 object) whose variable nothing reads: it
// occurs once in the body, not in the head, and is no expansion's In or
// Out. The reformulation's fresh variables (x takesCourse _f0) are the
// common case. A dead position is a wildcard: a scan does not emit it, a
// probe does not bind it.
func deadPositions(dst []uint8, q query.RangeCQ) []uint8 {
	for i, a := range q.Atoms {
		var mask uint8
		for p, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
			if ra.Arg.IsVar() && !readElsewhere(q, ra.Arg.Var, i, p) {
				mask |= 1 << p
			}
		}
		dst = append(dst, mask)
	}
	return dst
}

// readElsewhere reports whether anything but position p of atom i reads the
// variable v: the head, an expansion, or another body position.
func readElsewhere(q query.RangeCQ, v string, i, p int) bool {
	for _, h := range q.Head {
		if h.IsVar() && h.Var == v {
			return true
		}
	}
	for j, a := range q.Atoms {
		if x := a.Expand; x != nil && (x.In == v || x.Out.IsVar() && x.Out.Var == v) {
			return true
		}
		for k, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
			if (j != i || k != p) && ra.Arg.IsVar() && ra.Arg.Var == v {
				return true
			}
		}
	}
	return false
}

// memo shares work between the members of one union. The members of a
// reformulation differ in only a few alternatives per atom, so they repeat
// each other's scans and the first joins of each other's plans:
//
//   - scans: canonical atom → its scan, under canonical column names (the
//     scan of an atom is the same relation whatever its variables are
//     called);
//   - joins: the sequence of atoms joined so far → that intermediate. Joins
//     never mutate their inputs, so a memoized intermediate is reusable
//     as-is.
//
// What a memo retains stays live until the union ends, so it admits
// relations only up to memoCap IDs in total: a union of hundreds of
// thousands of members over large scans shares what fits and re-reads the
// rest, instead of doubling the evaluation's peak heap.
//
// A memo is unsynchronized: it belongs to one serial member loop. All
// methods accept a nil memo (a CQ evaluated on its own), which shares
// nothing.
type memo struct {
	scans, joins map[string]*Relation
	held         int    // IDs retained so far
	key          []byte // the scan key of the last lookup
	prefix       []byte // the running member's join-prefix key
}

// memoCap bounds the IDs one memo retains (16 MiB of row storage).
const memoCap = 4 << 20

// admit reports whether the memo may retain rel, and charges it.
func (m *memo) admit(rel *Relation) bool {
	if m == nil || m.held+rel.ids() > memoCap {
		return false
	}
	m.held += rel.ids()
	return true
}

// canonVars names scan columns in the memo; an atom has at most three.
var canonVars = [3]string{"v0", "v1", "v2"}

// appendAtomKey appends the atom's scan identity to dst: constants and
// ranges by value, dead positions as wildcards, live variables by column
// number — or, with no columns given, by name, which is what a join prefix
// needs (which columns join depends on the names).
func appendAtomKey(dst []byte, a query.RangeAtom, dead uint8, col *[3]int) []byte {
	for i, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		for _, r := range ra.Ranges {
			dst = strconv.AppendUint(append(dst, 'r'), uint64(r.Lo), 10)
			dst = strconv.AppendUint(append(dst, '-'), uint64(r.Hi), 10)
		}
		switch {
		case ra.Arg.IsVar() && dead&(1<<i) != 0:
			dst = append(dst, '_')
		case ra.Arg.IsVar() && col == nil:
			dst = append(append(dst, 'v'), ra.Arg.Var...)
		case ra.Arg.IsVar():
			dst = strconv.AppendUint(append(dst, 'v'), uint64(col[i]), 10)
		case ra.Ranges == nil:
			dst = strconv.AppendUint(append(dst, 'c'), uint64(ra.Arg.ID), 10)
		}
		dst = append(dst, ';')
	}
	return dst
}

// scan returns the memoized scan of the atom, dead positions left out,
// renamed to vars, or nil. It leaves the atom's key in m.key for the putScan
// that follows a miss.
func (m *memo) scan(a query.RangeAtom, dead uint8, vars []string, col [3]int) *Relation {
	if m == nil {
		return nil
	}
	m.key = appendAtomKey(m.key[:0], a, dead, &col)
	cached := m.scans[string(m.key)]
	if cached == nil {
		return nil
	}
	view, _ := cached.RenamedView(vars) // same key, same width
	return view
}

// putScan records the scan the last lookup missed.
func (m *memo) putScan(rel *Relation) {
	if !m.admit(rel) {
		return
	}
	if m.scans == nil {
		m.scans = map[string]*Relation{}
	}
	view, _ := rel.RenamedView(canonVars[:rel.Width()])
	m.scans[string(m.key)] = view
}

// begin starts a member's join prefix at its first atom.
func (m *memo) begin(a query.RangeAtom, dead uint8) {
	if m != nil {
		m.prefix = appendAtomKey(m.prefix[:0], a, dead, nil)
	}
}

// beginSeed starts a member's join prefix at the union's seed, the one
// relation every seeded member of the union starts from.
func (m *memo) beginSeed() {
	if m != nil {
		m.prefix = append(m.prefix[:0], '^')
	}
}

// join extends the prefix by the atom and returns the memoized
// intermediate for it, or nil (then putJoin records the one computed).
func (m *memo) join(a query.RangeAtom, dead uint8) *Relation {
	if m == nil {
		return nil
	}
	m.prefix = appendAtomKey(append(m.prefix, '|'), a, dead, nil)
	return m.joins[string(m.prefix)]
}

// putJoin records the intermediate of the current prefix.
func (m *memo) putJoin(rel *Relation) {
	if !m.admit(rel) {
		return
	}
	if m.joins == nil {
		m.joins = map[string]*Relation{}
	}
	m.joins[string(m.prefix)] = rel
}

// expandRelation applies one hierarchy expansion to the joined relation: an
// unbound output appends hierarchy ancestors as new bindings; a bound
// output (an earlier expansion or a reformulation constant) filters
// instead, which is exactly the binding-consistency intersection of the UCQ
// enumeration.
func (e *Evaluator) expandRelation(rel *Relation, exp *query.Expansion, g guard, sp *trace.Span) (*Relation, error) {
	var esp *trace.Span
	if sp != nil {
		esp = sp.Child("expand")
		defer esp.End()
		esp.SetStr("in", exp.In)
		if exp.Out.IsVar() {
			esp.SetStr("out", exp.Out.Var)
		}
		esp.SetInt("left_rows", int64(rel.Len()))
	}
	inCol := rel.columnIndex(exp.In)
	if inCol == -1 {
		return nil, fmt.Errorf("exec: expansion input %s missing from relation", exp.In)
	}
	outCol := -1
	var want dict.ID
	haveWant := false
	if exp.Out.IsVar() {
		outCol = rel.columnIndex(exp.Out.Var)
	} else {
		want, haveWant = exp.Out.ID, true
	}
	appendMode := exp.Out.IsVar() && outCol == -1
	var out *Relation
	if appendMode {
		out = NewRelation(append(append([]string(nil), rel.Vars...), exp.Out.Var))
	} else {
		out = NewRelation(append([]string(nil), rel.Vars...))
	}
	row := make([]dict.ID, len(out.Vars))
	steps := 0
	for i := 0; i < rel.Len(); i++ {
		steps++
		if steps&(checkEvery-1) == 0 {
			if err := g.err(); err != nil {
				return nil, err
			}
		}
		r := rel.Row(i)
		in := r[inCol]
		if appendMode {
			copy(row, r)
			if exp.Reflexive {
				row[len(r)] = in
				out.Append(row)
			}
			for _, anc := range exp.Table[in] {
				steps++
				if steps&(checkEvery-1) == 0 {
					if err := g.err(); err != nil {
						return nil, err
					}
				}
				row[len(r)] = anc
				out.Append(row)
			}
		} else {
			w := want
			if !haveWant {
				w = r[outCol]
			}
			if (exp.Reflexive && w == in) || containsSortedID(exp.Table[in], w) {
				out.Append(r)
			}
		}
		if err := e.checkRows(out.Len()); err != nil {
			return nil, err
		}
	}
	g.addJoined(out.Len())
	if esp != nil {
		esp.SetInt("rows", int64(out.Len()))
		esp.End()
	}
	return out, nil
}

// containsSortedID binary-searches a sorted ID slice (the schema closures
// are sorted).
func containsSortedID(ids []dict.ID, id dict.ID) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}
