// Package storage implements the dictionary-encoded triple store the
// reformulated queries are evaluated against: one logical triples table with
// three sorted permutation indexes (SPO, POS, OSP), supporting
// binary-searched range scans for every triple-pattern shape. This plays
// the role of the RDBMS back-ends of the paper (a Triples(s,p,o) table with
// clustered indexes), and exposes the exact-count primitives the statistics
// and cost modules build on.
package storage

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/dict"
)

// Pattern is a triple pattern over encoded IDs; dict.None marks a wildcard
// position.
type Pattern struct {
	S, P, O dict.ID
}

// Bound reports how many positions of the pattern are bound.
func (p Pattern) Bound() int {
	n := 0
	if p.S != dict.None {
		n++
	}
	if p.P != dict.None {
		n++
	}
	if p.O != dict.None {
		n++
	}
	return n
}

// Matches reports whether the triple matches the pattern.
func (p Pattern) Matches(t dict.Triple) bool {
	return (p.S == dict.None || p.S == t.S) &&
		(p.P == dict.None || p.P == t.P) &&
		(p.O == dict.None || p.O == t.O)
}

// Store is an immutable triple store over a fixed set of triples.
type Store struct {
	d   *dict.Dict
	spo []dict.Triple // sorted by (S,P,O)
	pos []dict.Triple // sorted by (P,O,S)
	osp []dict.Triple // sorted by (O,S,P)
}

// parallelBuildThreshold is the input size above which the three
// permutation indexes are sorted concurrently; below it the goroutine
// overhead outweighs the sort work.
const parallelBuildThreshold = 1 << 14

// Build sorts the given triples into the three permutations and returns the
// store. The input slice is not retained; duplicates are removed. Large
// inputs sort the three indexes in parallel — duplicates are identical
// triples, so they are adjacent under every permutation ordering and each
// index can sort+dedup the raw input independently, yielding the same set.
func Build(d *dict.Dict, triples []dict.Triple) *Store {
	if len(triples) < parallelBuildThreshold {
		spo := append([]dict.Triple(nil), triples...)
		sortBy(spo, keySPO)
		spo = dedupSorted(spo)
		pos := append([]dict.Triple(nil), spo...)
		sortBy(pos, keyPOS)
		osp := append([]dict.Triple(nil), spo...)
		sortBy(osp, keyOSP)
		return &Store{d: d, spo: spo, pos: pos, osp: osp}
	}
	st := &Store{d: d}
	var wg sync.WaitGroup
	for _, ix := range []struct {
		dst *[]dict.Triple
		key func(dict.Triple) [3]dict.ID
	}{{&st.spo, keySPO}, {&st.pos, keyPOS}, {&st.osp, keyOSP}} {
		wg.Add(1)
		go func(dst *[]dict.Triple, key func(dict.Triple) [3]dict.ID) {
			defer wg.Done()
			ts := append([]dict.Triple(nil), triples...)
			sortBy(ts, key)
			*dst = dedupSorted(ts)
		}(ix.dst, ix.key)
	}
	wg.Wait()
	return st
}

// Dict returns the dictionary the store is encoded against.
func (st *Store) Dict() *dict.Dict { return st.d }

// Len returns the number of triples in the store.
func (st *Store) Len() int { return len(st.spo) }

// Triples returns the full sorted (S,P,O) triple slice; callers must not
// mutate it.
func (st *Store) Triples() []dict.Triple { return st.spo }

// Contains reports whether the exact triple is present.
func (st *Store) Contains(t dict.Triple) bool {
	lo, hi := rangeOf(st.spo, keySPO, [3]dict.ID{t.S, t.P, t.O}, 3)
	return hi > lo
}

// Each calls fn for every triple matching the pattern, in index order,
// stopping early if fn returns false. This is the store's scan primitive.
func (st *Store) Each(pat Pattern, fn func(dict.Triple) bool) {
	idx, key, prefix, nbound := st.choose(pat)
	lo, hi := rangeOf(idx, key, prefix, nbound)
	if nbound == pat.Bound() {
		// The bound positions form a prefix of the chosen ordering: the
		// range is exact, no residual filtering needed.
		for _, t := range idx[lo:hi] {
			if !fn(t) {
				return
			}
		}
		return
	}
	for _, t := range idx[lo:hi] {
		if pat.Matches(t) {
			if !fn(t) {
				return
			}
		}
	}
}

// Scan returns all triples matching the pattern as a fresh slice.
func (st *Store) Scan(pat Pattern) []dict.Triple {
	out := make([]dict.Triple, 0, 16)
	st.Each(pat, func(t dict.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Count returns the exact number of triples matching the pattern. For
// prefix-contiguous patterns this is two binary searches; the (S,?,O) shape
// requires a filtered scan of the subject's range.
func (st *Store) Count(pat Pattern) int {
	idx, key, prefix, nbound := st.choose(pat)
	lo, hi := rangeOf(idx, key, prefix, nbound)
	if nbound == pat.Bound() {
		return hi - lo
	}
	n := 0
	for _, t := range idx[lo:hi] {
		if pat.Matches(t) {
			n++
		}
	}
	return n
}

// choose picks the index ordering whose sort key has the longest prefix of
// bound positions, returning the index, its key function, the bound prefix
// values and the prefix length.
func (st *Store) choose(pat Pattern) (idx []dict.Triple, key func(dict.Triple) [3]dict.ID, prefix [3]dict.ID, nbound int) {
	sB, pB, oB := pat.S != dict.None, pat.P != dict.None, pat.O != dict.None
	switch {
	case sB && pB && oB:
		return st.spo, keySPO, [3]dict.ID{pat.S, pat.P, pat.O}, 3
	case sB && pB:
		return st.spo, keySPO, [3]dict.ID{pat.S, pat.P, 0}, 2
	case pB && oB:
		return st.pos, keyPOS, [3]dict.ID{pat.P, pat.O, 0}, 2
	case sB && oB:
		// No (S,O)-prefixed ordering: scan the subject's SPO range and
		// filter on O.
		return st.spo, keySPO, [3]dict.ID{pat.S, 0, 0}, 1
	case sB:
		return st.spo, keySPO, [3]dict.ID{pat.S, 0, 0}, 1
	case pB:
		return st.pos, keyPOS, [3]dict.ID{pat.P, 0, 0}, 1
	case oB:
		return st.osp, keyOSP, [3]dict.ID{pat.O, 0, 0}, 1
	default:
		return st.spo, keySPO, [3]dict.ID{}, 0
	}
}

// --- orderings -------------------------------------------------------------

func keySPO(t dict.Triple) [3]dict.ID { return [3]dict.ID{t.S, t.P, t.O} }
func keyPOS(t dict.Triple) [3]dict.ID { return [3]dict.ID{t.P, t.O, t.S} }
func keyOSP(t dict.Triple) [3]dict.ID { return [3]dict.ID{t.O, t.S, t.P} }

func sortBy(ts []dict.Triple, key func(dict.Triple) [3]dict.ID) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := key(ts[i]), key(ts[j])
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
}

func dedupSorted(ts []dict.Triple) []dict.Triple {
	if len(ts) < 2 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// rangeOf returns the half-open index range [lo,hi) of triples whose key
// starts with the first n components of prefix.
func rangeOf(idx []dict.Triple, key func(dict.Triple) [3]dict.ID, prefix [3]dict.ID, n int) (int, int) {
	if n == 0 {
		return 0, len(idx)
	}
	cmp := func(t dict.Triple) int {
		k := key(t)
		return slices.Compare(k[:n], prefix[:n])
	}
	lo := sort.Search(len(idx), func(i int) bool { return cmp(idx[i]) >= 0 })
	// Matching ranges are short next to the index (a probe's is a handful of
	// triples): gallop from lo to bracket the end, then search the bracket.
	step := 1
	for lo+step < len(idx) && cmp(idx[lo+step]) == 0 {
		step *= 2
	}
	tail := idx[lo:min(lo+step, len(idx))]
	return lo, lo + sort.Search(len(tail), func(i int) bool { return cmp(tail[i]) > 0 })
}

// DistinctInPosition returns the number of distinct values in the given
// position ('s', 'p' or 'o') among triples matching the pattern; used by
// the statistics module for join selectivity estimation.
func (st *Store) DistinctInPosition(pat Pattern, pos byte) int {
	seen := dict.None
	first := true
	n := 0
	// Choose an ordering where the requested position varies contiguously
	// where possible; otherwise fall back to a set.
	var ordered []dict.Triple
	switch pos {
	case 's':
		if pat.Bound() == 0 {
			ordered = st.spo
		}
	case 'p':
		if pat.Bound() == 0 {
			ordered = st.pos
		}
	case 'o':
		if pat.Bound() == 0 {
			ordered = st.osp
		}
	}
	if ordered != nil {
		for _, t := range ordered {
			v := position(t, pos)
			if first || v != seen {
				n++
				seen, first = v, false
			}
		}
		return n
	}
	set := map[dict.ID]bool{}
	st.Each(pat, func(t dict.Triple) bool {
		set[position(t, pos)] = true
		return true
	})
	return len(set)
}

func position(t dict.Triple, pos byte) dict.ID {
	switch pos {
	case 's':
		return t.S
	case 'p':
		return t.P
	default:
		return t.O
	}
}
