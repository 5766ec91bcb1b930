package query

import (
	"fmt"
	"strings"

	"repro/internal/dict"
	"repro/internal/storage"
)

// This file defines range queries: the reformulation target of the
// ref-range strategy. Under the hierarchy-aware interval encoding a
// hierarchy union (all subclasses of c, all subproperties of p) is a small
// list of ID ranges, so one range atom stands for the whole union of
// atomic reformulations that ref-ucq would enumerate.

// RangeArg is one position of a range atom. With Ranges == nil it behaves
// exactly like the plain Arg. With Ranges non-nil the position must fall in
// one of the (sorted, disjoint) ID ranges; Arg.Var then optionally names a
// capture variable bound to the matched ID (empty for "constrained, not
// captured").
type RangeArg struct {
	Arg    Arg
	Ranges []storage.IDRange
}

// PlainArg builds an unconstrained range position from a plain argument.
func PlainArg(a Arg) RangeArg { return RangeArg{Arg: a} }

// Expansion post-processes the rows matched by a range atom: the ID bound
// to the In variable is mapped through Table to recover the entailed
// hierarchy ancestors, each emitted as a binding for Out. With Reflexive
// set the matched ID itself is also emitted (identity entailment). When Out
// is a constant (a reformulation rule bound it), the expansion acts as a
// filter instead. This reproduces, in one pass, the per-ancestor atomic
// CQs of the UCQ reformulation.
type Expansion struct {
	In        string
	Out       Arg
	Table     map[dict.ID][]dict.ID
	Reflexive bool
}

// RangeAtom is one triple pattern whose positions may be range-constrained,
// with an optional expansion applied after the CQ's joins.
type RangeAtom struct {
	S, P, O RangeArg
	Expand  *Expansion
}

// Substitute rewrites variable occurrences in the plain arguments and in
// the expansion output (bindings never touch capture variables: those are
// atom-local fresh names).
func (t RangeAtom) Substitute(sub map[string]Arg) RangeAtom {
	reps := func(ra RangeArg) RangeArg {
		if ra.Ranges == nil && ra.Arg.IsVar() {
			if rep, ok := sub[ra.Arg.Var]; ok {
				ra.Arg = rep
			}
		}
		return ra
	}
	t.S, t.P, t.O = reps(t.S), reps(t.P), reps(t.O)
	if t.Expand != nil && t.Expand.Out.IsVar() {
		if rep, ok := sub[t.Expand.Out.Var]; ok {
			e := *t.Expand
			e.Out = rep
			t.Expand = &e
		}
	}
	return t
}

// Vars appends the variable names bound by the atom (plain variables,
// capture variables, and the expansion output) to dst.
func (t RangeAtom) Vars(dst []string) []string {
	for _, ra := range [3]RangeArg{t.S, t.P, t.O} {
		if ra.Arg.IsVar() {
			dst = append(dst, ra.Arg.Var)
		}
	}
	if t.Expand != nil && t.Expand.Out.IsVar() {
		dst = append(dst, t.Expand.Out.Var)
	}
	return dst
}

// Ranged reports whether any position of the atom is range-constrained:
// the statistics estimate such an atom by an exact count of its
// RangePattern, any other from the per-property tables through the plain
// storage.Pattern of its Plain form. Every atom scans and probes with its
// RangePattern.
func (t RangeAtom) Ranged() bool {
	return t.S.Ranges != nil || t.P.Ranges != nil || t.O.Ranges != nil
}

// Plain is the atom without its ranges and expansion: the plain form of an
// atom that is not ranged, and of a ranged one the pattern its per-variable
// statistics are read from (a ranged position holds a capture variable or
// nothing, so it is a wildcard there).
func (t RangeAtom) Plain() Atom { return Atom{S: t.S.Arg, P: t.P.Arg, O: t.O.Arg} }

// RangePattern is the range pattern an atom's scans and probes run: range
// positions keep their ranges, constants become exact ranges, variables are
// wildcards.
func (t RangeAtom) RangePattern() storage.RangePattern {
	var exact *[3]storage.IDRange // the constants' ranges, one allocation
	conv := func(i int, ra RangeArg) []storage.IDRange {
		switch {
		case ra.Ranges != nil:
			return ra.Ranges
		case !ra.Arg.IsVar():
			if exact == nil {
				exact = new([3]storage.IDRange)
			}
			exact[i] = storage.Exact(ra.Arg.ID)
			return exact[i : i+1 : i+1]
		}
		return nil
	}
	return storage.RangePattern{S: conv(0, t.S), P: conv(1, t.P), O: conv(2, t.O)}
}

// LiftAtoms appends the range form of the plain atoms to dst: a plain atom
// is a range atom with no Ranges and no Expand.
func LiftAtoms(dst []RangeAtom, atoms []Atom) []RangeAtom {
	for _, a := range atoms {
		dst = append(dst, RangeAtom{S: PlainArg(a.S), P: PlainArg(a.P), O: PlainArg(a.O)})
	}
	return dst
}

// Lift returns the range form of a plain CQ.
func (q CQ) Lift() RangeCQ {
	return RangeCQ{Head: q.Head, Atoms: LiftAtoms(make([]RangeAtom, 0, len(q.Atoms)), q.Atoms)}
}

// Lift returns the range form of the union's members, whose atoms share one
// allocation.
func (u UCQ) Lift() []RangeCQ {
	out := make([]RangeCQ, len(u.CQs))
	slab := make([]RangeAtom, 0, u.Atoms())
	for i, cq := range u.CQs {
		n := len(slab)
		slab = LiftAtoms(slab, cq.Atoms)
		out[i] = RangeCQ{Head: cq.Head, Atoms: slab[n:len(slab):len(slab)]}
	}
	return out
}

// RangeAtoms counts the atoms with at least one range-constrained position.
func (q RangeCQ) RangeAtoms() int {
	n := 0
	for _, t := range q.Atoms {
		if t.Ranged() {
			n++
		}
	}
	return n
}

// Expansions counts the atoms carrying an expansion.
func (q RangeCQ) Expansions() int {
	n := 0
	for _, t := range q.Atoms {
		if t.Expand != nil {
			n++
		}
	}
	return n
}

// RangeCQ is a conjunctive query over range atoms.
type RangeCQ struct {
	Head  []Arg
	Atoms []RangeAtom
}

// RangeUCQ is a union of range CQs sharing head variable names.
type RangeUCQ struct {
	HeadNames []string
	CQs       []RangeCQ
}

// Size returns the number of CQs in the union.
func (u RangeUCQ) Size() int { return len(u.CQs) }

// RangeAtoms sums RangeAtoms over all CQs.
func (u RangeUCQ) RangeAtoms() int {
	n := 0
	for _, q := range u.CQs {
		n += q.RangeAtoms()
	}
	return n
}

// Format renders the atom for operator spans and EXPLAIN: a plain atom with
// its terms decoded, an atom with a range or an expansion in the range
// notation, its constants decoded.
func (t RangeAtom) Format(d *dict.Dict) string {
	if t.Ranged() || t.Expand != nil {
		return FormatRangeAtom(d, t)
	}
	return FormatAtom(d, t.Plain())
}

// Format renders the CQ in the paper's notation, its atoms as
// RangeAtom.Format does — for a lifted plain CQ, FormatCQ's text.
func (q RangeCQ) Format(d *dict.Dict) string {
	head := make([]string, len(q.Head))
	for i, h := range q.Head {
		head[i] = FormatArg(d, h)
	}
	atoms := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = a.Format(d)
	}
	return "q(" + strings.Join(head, ", ") + ") :- " + strings.Join(atoms, ", ")
}

// FormatRangeAtom renders a range atom in the range notation, constants
// decoded against d (as #ID when d is nil).
func FormatRangeAtom(d *dict.Dict, t RangeAtom) string {
	var sb strings.Builder
	constant := func(a Arg) string {
		if d == nil {
			return fmt.Sprintf("#%d", a.ID)
		}
		return FormatArg(d, a)
	}
	pos := func(ra RangeArg) {
		switch {
		case ra.Ranges != nil && ra.Arg.IsVar():
			fmt.Fprintf(&sb, "%s∈%s", ra.Arg.Var, formatRanges(ra.Ranges))
		case ra.Ranges != nil:
			sb.WriteString(formatRanges(ra.Ranges))
		case ra.Arg.IsVar():
			sb.WriteString(ra.Arg.Var)
		default:
			sb.WriteString(constant(ra.Arg))
		}
	}
	pos(t.S)
	sb.WriteByte(' ')
	pos(t.P)
	sb.WriteByte(' ')
	pos(t.O)
	if t.Expand != nil {
		op := "↑"
		if t.Expand.Reflexive {
			op = "↑="
		}
		out := t.Expand.Out.Var
		if !t.Expand.Out.IsVar() {
			out = constant(t.Expand.Out)
		}
		fmt.Fprintf(&sb, " [%s%s%s]", t.Expand.In, op, out)
	}
	return sb.String()
}

func formatRanges(rs []storage.IDRange) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, r := range rs {
		if i > 0 {
			sb.WriteByte(',')
		}
		if r.IsExact() {
			fmt.Fprintf(&sb, "%d", r.Lo)
		} else {
			fmt.Fprintf(&sb, "%d-%d", r.Lo, r.Hi)
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
