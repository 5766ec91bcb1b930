package engine

import (
	"slices"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/shard"
	"repro/internal/storage"
)

// satSource is G∞ as the Sat strategy reads it: two disjoint parts, the
// version's data source D — the runs the graph and the Ref strategies
// already hold — and the store of Δ = G∞ \ D, the triples saturation adds.
// A scan reads the parts one after the other, each only where it can hold
// the pattern's property and, for rdf:type, its class: that is told by a
// search of the part's few properties and classes, not of its index, so a
// probe into one part costs what it did in a store of G∞.
type satSource struct {
	data   *shard.Store
	delta  *storage.Store
	typeID dict.ID
	// props and classes hold, sorted, the properties of D's ([0]) and Δ's
	// ([1]) triples and the objects of their rdf:type triples.
	props, classes [2][]dict.ID
}

func newSatSource(data *shard.Store, delta *storage.Store, typeID dict.ID) *satSource {
	u := &satSource{data: data, delta: delta, typeID: typeID}
	// A range on the property alone is scanned in (P,O,S) order: a
	// property's triples, and rdf:type's classes, are each one span —
	// within a shard; shards are walked in turn.
	all := storage.RangePattern{P: []storage.IDRange{{Lo: 1, Hi: ^dict.ID(0)}}}
	for i, part := range []exec.Source{data, delta} {
		var ps, cs []dict.ID
		part.EachRun(all, func(ts []dict.Triple) bool {
			for _, t := range ts {
				if len(ps) == 0 || ps[len(ps)-1] != t.P {
					ps = append(ps, t.P)
				}
				if t.P == typeID && (len(cs) == 0 || cs[len(cs)-1] != t.O) {
					cs = append(cs, t.O)
				}
			}
			return true
		})
		slices.Sort(ps)
		slices.Sort(cs)
		u.props[i], u.classes[i] = slices.Clip(slices.Compact(ps)), slices.Clip(slices.Compact(cs))
	}
	return u
}

// parts reports which parts may hold a triple whose property falls in ps and,
// when ps is rdf:type alone, whose object falls in os (nil: any).
func (u *satSource) parts(ps, os []storage.IDRange) (inD, inΔ bool) {
	may := func(i int) bool {
		if ps == nil {
			return true
		}
		if !anyIn(u.props[i], ps) {
			return false
		}
		return os == nil || len(ps) != 1 || ps[0] != storage.Exact(u.typeID) || anyIn(u.classes[i], os)
	}
	return may(0), may(1)
}

// anyIn reports whether one of the sorted ids falls in one of the ranges.
func anyIn(ids []dict.ID, rs []storage.IDRange) bool {
	for _, r := range rs {
		if i, _ := slices.BinarySearch(ids, r.Lo); i < len(ids) && ids[i] <= r.Hi {
			return true
		}
	}
	return false
}

func (u *satSource) Dict() *dict.Dict { return u.data.Dict() }

func (u *satSource) Len() int { return u.data.Len() + u.delta.Len() }

// EachRun reads D, then Δ, and stops once fn does: where both parts may
// match, D's scan goes through a wrapper that notes the stop — on the stack,
// as neither part keeps fn.
func (u *satSource) EachRun(pat storage.RangePattern, fn func([]dict.Triple) bool) {
	switch inD, inΔ := u.parts(pat.P, pat.O); {
	case inD && inΔ:
		more := true
		u.data.EachRun(pat, func(ts []dict.Triple) bool {
			more = fn(ts)
			return more
		})
		if more {
			u.delta.EachRun(pat, fn)
		}
	case inD:
		u.data.EachRun(pat, fn)
	case inΔ:
		u.delta.EachRun(pat, fn)
	}
}

func (u *satSource) CountRange(pat storage.RangePattern) int {
	n := 0
	inD, inΔ := u.parts(pat.P, pat.O)
	if inD {
		n += u.data.CountRange(pat)
	}
	if inΔ {
		n += u.delta.CountRange(pat)
	}
	return n
}
