package storage

import (
	"sort"

	"repro/internal/dict"
)

// IDRange is an inclusive range of dictionary IDs. Under the hierarchy-aware
// interval encoding a whole subClassOf/subPropertyOf subtree is one such
// range, so a hierarchy union collapses to a single range predicate.
type IDRange struct {
	Lo, Hi dict.ID
}

// Exact returns the one-ID range {id}.
func Exact(id dict.ID) IDRange { return IDRange{Lo: id, Hi: id} }

// IsExact reports whether the range covers exactly one ID.
func (r IDRange) IsExact() bool { return r.Lo == r.Hi }

// InRanges reports whether id falls in one of the sorted, disjoint ranges.
func InRanges(rs []IDRange, id dict.ID) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= id })
	return i < len(rs) && rs[i].Lo <= id
}

// MergeIDs turns a set of IDs into the minimal sorted list of inclusive
// ranges covering exactly that set (consecutive IDs merge into one range).
// The input is sorted in place; duplicates are tolerated.
func MergeIDs(ids []dict.ID) []IDRange {
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := []IDRange{{Lo: ids[0], Hi: ids[0]}}
	for _, id := range ids[1:] {
		last := &out[len(out)-1]
		switch {
		case id <= last.Hi:
			// duplicate
		case id == last.Hi+1:
			last.Hi = id
		default:
			out = append(out, IDRange{Lo: id, Hi: id})
		}
	}
	return out
}

// RangePattern generalizes Pattern: each position is either a wildcard (nil)
// or a sorted list of disjoint inclusive ID ranges the position must fall
// in. Pattern{S: x} corresponds to RangePattern{S: []IDRange{Exact(x)}}.
type RangePattern struct {
	S, P, O []IDRange
}

// Matches reports whether the triple satisfies every constrained position.
func (p RangePattern) Matches(t dict.Triple) bool {
	return (p.S == nil || InRanges(p.S, t.S)) &&
		(p.P == nil || InRanges(p.P, t.P)) &&
		(p.O == nil || InRanges(p.O, t.O))
}

// rangeScan is how a range pattern is answered from one run: its ordering,
// the exact prefix it binary-searches, the ranges of the component after the
// prefix (nil: unconstrained), and whether a triple found must still be
// checked against the pattern (constrained positions beyond those).
type rangeScan struct {
	o        ordering
	prefix   [3]dict.ID
	ne       int
	next     []IDRange
	residual bool
}

// chooseRange picks the ordering that binary-searches away the most work:
// the longest prefix of exact positions, a range-constrained next position
// as tie-break.
func chooseRange(p RangePattern) rangeScan {
	best := rangeScan{ne: -1}
	for o, order := range [3][3][]IDRange{{p.S, p.P, p.O}, {p.P, p.O, p.S}, {p.O, p.S, p.P}} {
		s := rangeScan{o: ordering(o)}
		for s.ne < 3 && len(order[s.ne]) == 1 && order[s.ne][0].IsExact() {
			s.prefix[s.ne] = order[s.ne][0].Lo
			s.ne++
		}
		if rest := order[s.ne:]; len(rest) > 0 {
			s.next = rest[0]
			for _, rs := range rest[1:] {
				s.residual = s.residual || rs != nil
			}
		}
		if s.ne > best.ne || s.ne == best.ne && s.next != nil && best.next == nil {
			best = s
		}
	}
	return best
}

// eachRun calls fn with every run of idx, sorted by s.o, that s selects: the
// run of the exact prefix, found once, and inside it one run per range of the
// next component, each bracketed by two binary searches over the prefix's
// run alone. It stops when fn returns false.
func (s rangeScan) eachRun(idx []dict.Triple, fn func([]dict.Triple) bool) {
	lo, hi := rangeOf(idx, s.o, s.prefix, s.ne)
	run := idx[lo:hi]
	if s.next == nil {
		fn(run)
		return
	}
	// Inside the run the keys agree on the prefix: comparing the one
	// component after it is comparing the keys.
	var lob, hib [3]dict.ID
	for _, r := range s.next {
		lob[s.ne], hib[s.ne] = r.Lo, r.Hi
		run = run[bound(run, s.o, lob, s.ne, s.ne+1, false):]
		n := bound(run, s.o, hib, s.ne, s.ne+1, true)
		if n > 0 && !fn(run[:n]) {
			return
		}
		run = run[n:]
	}
}

// EachRange calls fn for every triple matching the range pattern, in index
// order, stopping early if fn returns false. Exact-prefix positions and one
// range-constrained position are answered by binary search; any further
// constrained positions are filtered residually.
func (st *Store) EachRange(p RangePattern, fn func(dict.Triple) bool) {
	s := chooseRange(p)
	s.eachRun(st.runs[s.o], func(run []dict.Triple) bool {
		for _, t := range run {
			if s.residual && !p.Matches(t) {
				continue
			}
			if !fn(t) {
				return false
			}
		}
		return true
	})
}

// CountRange returns the exact number of triples matching the range
// pattern. Shapes fully covered by the binary-searched prefix are counted
// without scanning.
func (st *Store) CountRange(p RangePattern) int {
	s := chooseRange(p)
	n := 0
	s.eachRun(st.runs[s.o], func(run []dict.Triple) bool {
		if !s.residual {
			n += len(run)
			return true
		}
		for _, t := range run {
			if p.Matches(t) {
				n++
			}
		}
		return true
	})
	return n
}
