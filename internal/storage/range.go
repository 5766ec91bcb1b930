package storage

import (
	"sort"
	"sync"

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
	prefix   key
	ne       int
	next     []IDRange
	residual bool
}

// chooseRange picks the ordering that binary-searches away the most work:
// the longest prefix of exact positions, a range-constrained next position
// as tie-break, the first ordering on a full tie. Ordering o lists the
// positions o, o+1 and o+2 (mod 3): (S,P,O), (P,O,S), (O,S,P). Only the
// chosen ordering's prefix key is built — the choice runs once per probe.
func chooseRange(p RangePattern) rangeScan {
	pos := [3][]IDRange{p.S, p.P, p.O}
	var exact [3]bool
	for i := range pos {
		exact[i] = len(pos[i]) == 1 && pos[i][0].IsExact()
	}
	// next reports whether ordering o constrains the position after its
	// prefix of ne exact ones.
	next := func(o, ne int) bool { return ne < 3 && pos[(o+ne)%3] != nil }
	best, bestNE := 0, -1
	for o := range 3 {
		ne := 0
		for ne < 3 && exact[(o+ne)%3] {
			ne++
		}
		if ne > bestNE || ne == bestNE && next(o, ne) && !next(best, bestNE) {
			best, bestNE = o, ne
		}
	}
	s := rangeScan{o: ordering(best), ne: bestNE}
	for i := range 3 {
		switch rs := pos[(best+i)%3]; {
		case i < s.ne:
			s.prefix = s.prefix.with(i, rs[0].Lo)
		case i == s.ne:
			s.next = rs
		default:
			s.residual = s.residual || rs != nil
		}
	}
	return s
}

// spans calls fn with the positions [lo,hi) of every part of r, sorted by
// s.o, that s selects, and the block holding lo: the part of the exact
// prefix, or one part per range of the next component. It reports false if
// fn stopped it.
func (s rangeScan) spans(r *Run, fn func(lo, hi, b int) bool) bool {
	lo, hi, b := r.rangeOf(s.prefix, s.ne)
	if s.next == nil || lo == hi {
		return fn(lo, hi, b)
	}
	if hi <= r.ends[b] {
		// The prefix's triples lie in one block (a probe's do): each range
		// is two binary searches there, comparing the one component after
		// the prefix, on which they agree.
		run := r.part(lo, hi, b)
		for _, rg := range s.next {
			i := bound(run, s.o, s.prefix.with(s.ne, rg.Lo), s.ne+1, false)
			n := bound(run[i:], s.o, s.prefix.with(s.ne, rg.Hi), s.ne+1, true)
			if lo += i; n > 0 && !fn(lo, lo+n, b) {
				return false
			}
			run, lo = run[i+n:], lo+n
		}
		return true
	}
	// Otherwise each range is two spine searches of the prefix extended by
	// its Lo and Hi. Ranges are sorted and disjoint: each search starts in
	// the block the previous range ended in.
	for _, rg := range s.next {
		start, at := r.seek(s.prefix.with(s.ne, rg.Lo), s.ne+1, false, b)
		end, last := r.seek(s.prefix.with(s.ne, rg.Hi), s.ne+1, true, at)
		if !fn(start, end, at) {
			return false
		}
		b = last
	}
	return true
}

// eachRun calls fn with the triples of every part s selects, a block's
// share at a time, and reports false if fn stopped it.
func (s rangeScan) eachRun(r *Run, fn func([]dict.Triple) bool) bool {
	return s.spans(r, func(lo, hi, b int) bool { return r.each(lo, hi, b, fn) })
}

// matchBufs holds the buffers EachRun filters a pattern's matches into. An
// index probe with a filter past its searched prefix reads a few triples,
// and a buffer made for each is 768 bytes a probe: 18 KB an op of E3's Q5
// under ref-gcov, twice what the rest of the op allocates.
var matchBufs = sync.Pool{New: func() any { return new([64]dict.Triple) }}

// EachRun calls fn with the triples matching the range pattern, in index
// order, a sorted slice at a time, stopping early if fn returns false: the
// block-at-a-time scan. Where the pattern constrains positions past the
// searched prefix and range, the matches are filtered into a buffer, up to
// 64 at a time; otherwise each slice is part of a block, shared. Callers
// must not modify a slice, nor keep it once fn returns.
func (st *Store) EachRun(p RangePattern, fn func([]dict.Triple) bool) {
	s := chooseRange(p)
	if !s.residual {
		s.eachRun(st.runs[s.o], fn)
		return
	}
	buf := matchBufs.Get().(*[64]dict.Triple)
	defer matchBufs.Put(buf)
	n := 0
	if s.eachRun(st.runs[s.o], func(ts []dict.Triple) bool {
		for _, t := range ts {
			if !p.Matches(t) {
				continue
			}
			buf[n] = t
			if n++; n == len(buf) {
				if n = 0; !fn(buf[:]) {
					return false
				}
			}
		}
		return true
	}) && n > 0 {
		fn(buf[:n])
	}
}

// EachRange calls fn for every triple matching the range pattern, in index
// order, stopping early if fn returns false. Exact-prefix positions and one
// range-constrained position are answered by binary search; any further
// constrained positions are filtered residually.
func (st *Store) EachRange(p RangePattern, fn func(dict.Triple) bool) {
	s := chooseRange(p)
	s.eachRun(st.runs[s.o], func(ts []dict.Triple) bool {
		for _, t := range ts {
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
	r := st.runs[s.o]
	n := 0
	if !s.residual {
		s.spans(r, func(lo, hi, _ int) bool {
			n += hi - lo
			return true
		})
		return n
	}
	s.eachRun(r, func(ts []dict.Triple) bool {
		for _, t := range ts {
			if p.Matches(t) {
				n++
			}
		}
		return true
	})
	return n
}
