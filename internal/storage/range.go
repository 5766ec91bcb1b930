package storage

import (
	"math/bits"
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
// in. Pattern{S: x} is RangePattern{S: []IDRange{Exact(x)}} (Pattern.Range),
// and every read of the store, plain or ranged, is of a range pattern.
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
// positions o, o+1 and o+2 (mod 3): (S,P,O), (P,O,S), (O,S,P). The choice
// depends only on which positions are exact and which constrained, so it is
// read off a table (choices); only the chosen ordering's prefix key is
// built — the choice runs once per probe.
func chooseRange(p RangePattern) (s rangeScan) {
	pos := [3][]IDRange{p.S, p.P, p.O}
	var exact, set uint
	for i := range pos {
		if pos[i] != nil {
			set |= 1 << i
			if len(pos[i]) == 1 && pos[i][0].IsExact() {
				exact |= 1 << i
			}
		}
	}
	c := choices[exact|set<<3]
	s.o, s.ne = c.o, int(c.ne)
	for i, at := range positions[c.o] {
		switch rs := pos[at]; {
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

// positions[o] lists the positions of (S,P,O) in ordering o's order.
var positions = [3][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}

// choices[exact|constrained<<3] is chooseRange's ordering and exact-prefix
// length for a pattern whose exact and constrained positions are the set
// bits of the two masks, bit i for position i of (S,P,O).
var choices = func() (out [64]struct {
	o  ordering
	ne int8
}) {
	for m := range out {
		exact, set := m&7, m>>3
		best, bestNE, bestNext := 0, -1, false
		for o := range 3 {
			// The masks rotated so that bit k is ordering o's k-th
			// component: its exact prefix is the run of low set bits.
			e, c := (exact>>o|exact<<(3-o))&7, (set>>o|set<<(3-o))&7
			ne := bits.TrailingZeros(uint(^e))
			next := c>>ne&1 != 0
			if ne > bestNE || ne == bestNE && next && !bestNext {
				best, bestNE, bestNext = o, ne, next
			}
		}
		out[m].o, out[m].ne = ordering(best), int8(bestNE)
	}
	return out
}()

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
// order, stopping early if fn returns false: EachRun a triple at a time. It
// exists for the benchmark's trace, which times it directly; ROADMAP item 2
// deletes it together with that shadow.
func (st *Store) EachRange(p RangePattern, fn func(dict.Triple) bool) {
	st.EachRun(p, func(ts []dict.Triple) bool {
		for _, t := range ts {
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
	if s.next == nil && !s.residual {
		// An exact prefix alone, as every plain pattern is: one range.
		lo, hi, _ := r.rangeOf(s.prefix, s.ne)
		return hi - lo
	}
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
