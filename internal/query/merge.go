package query

import (
	"slices"
	"strconv"

	"repro/internal/dict"
	"repro/internal/storage"
)

// Merged returns what a JUCQ fragment evaluates of u (Fragment.Members): its
// members minimized — each to its core, then those another member subsumes
// dropped — in the executor's atom form, merged. u is not written.
func (u UCQ) Merged() []RangeCQ {
	m := UCQ{HeadNames: u.HeadNames, CQs: slices.Clone(u.CQs)}
	m.minimize()
	return Merge(m.Lift())
}

// Merge compacts a union in the executor's atom form: the union of members
// equal but for the constant cⱼ at one position is one member whose position
// lies in {cⱼ}, a range position. Every group of members equal except at one
// position of one atom, where each holds a constant or an uncaptured range,
// becomes one member holding their union there, until no two members merge.
// A variable, a parameter slot (Lift) and a head argument never merge —
// heads must be equal — nor does a member with an expansion. A merged member
// takes the place of the first of its group; cqs is not written.
func Merge(cqs []RangeCQ) []RangeCQ {
	width := 0
	for _, cq := range cqs {
		width = max(width, len(cq.Atoms))
	}
	out := slices.Clone(cqs)
	for n := -1; n != len(out); {
		n = len(out)
		for i := 0; i < width; i++ {
			for p := 0; p < 3; p++ {
				out = mergeAt(out, i, p)
			}
		}
	}
	return out
}

// mergeAt merges the members that agree everywhere but at position p of atom
// i.
func mergeAt(cqs []RangeCQ, i, p int) []RangeCQ {
	group := map[string]int{} // key of a member without (i, p) → its index in out
	var (
		out  []RangeCQ
		sets [][]dict.ID // per member of out, its group's IDs at (i, p)
		key  []byte
	)
	for _, cq := range cqs {
		ids := mergeable(cq, i, p)
		if ids != nil {
			key = memberKey(key[:0], cq, i, p)
			if g, ok := group[string(key)]; ok {
				sets[g] = append(sets[g], ids...)
				continue
			}
			group[string(key)] = len(out)
		}
		out, sets = append(out, cq), append(sets, ids)
	}
	for g, ids := range sets {
		if len(ids) > len(mergeable(out[g], i, p)) { // the group has more than one member
			out[g].Atoms = slices.Clone(out[g].Atoms)
			*position(&out[g].Atoms[i], p) = rangeArg(storage.MergeIDs(ids))
		}
	}
	return out
}

// mergeable returns, in a fresh slice, the IDs position p of atom i stands
// for when it may merge — a constant other than a parameter, or an
// uncaptured range, in a member without an expansion — and nil otherwise.
func mergeable(cq RangeCQ, i, p int) []dict.ID {
	if i >= len(cq.Atoms) || cq.Expansions() > 0 {
		return nil
	}
	ra := *position(&cq.Atoms[i], p)
	if _, param := ra.Arg.Slot(); ra.Arg.IsVar() || param {
		return nil
	}
	if ra.Ranges == nil {
		return []dict.ID{ra.Arg.ID}
	}
	var ids []dict.ID
	for _, r := range ra.Ranges {
		for id := r.Lo; id <= r.Hi && id >= r.Lo; id++ {
			ids = append(ids, id)
		}
	}
	return ids
}

// position returns position p (0 S, 1 P, 2 O) of the atom.
func position(a *RangeAtom, p int) *RangeArg { return [3]*RangeArg{&a.S, &a.P, &a.O}[p] }

// rangeArg is the position standing for the ranges: the constant itself
// when they hold one ID, an uncaptured range otherwise.
func rangeArg(rs []storage.IDRange) RangeArg {
	if len(rs) == 1 && rs[0].IsExact() {
		return PlainArg(Constant(rs[0].Lo))
	}
	return RangeArg{Ranges: rs}
}

// memberKey appends to dst the member without position p of atom i: its
// head, and every other position of every atom with its ranges.
func memberKey(dst []byte, cq RangeCQ, i, p int) []byte {
	arg := func(a Arg) {
		if a.IsVar() {
			dst = append(append(append(dst, '?'), a.Var...), 0)
		} else {
			dst = strconv.AppendUint(append(dst, '#'), uint64(a.ID), 10)
		}
	}
	for _, h := range cq.Head {
		arg(h)
	}
	for ai := range cq.Atoms {
		for pi := 0; pi < 3; pi++ {
			dst = append(dst, '|')
			if ra := *position(&cq.Atoms[ai], pi); ai != i || pi != p {
				arg(ra.Arg)
				for _, r := range ra.Ranges {
					dst = strconv.AppendUint(append(strconv.AppendUint(append(dst, '['), uint64(r.Lo), 10), '-'), uint64(r.Hi), 10)
				}
			}
		}
	}
	return dst
}
