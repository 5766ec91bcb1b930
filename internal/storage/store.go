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
	d    *dict.Dict
	runs [3][]dict.Triple // the triples sorted by each ordering: SPO, POS, OSP
}

// Build sorts the given triples into the three permutations and returns the
// store. The input slice is not retained; duplicates are removed.
func Build(d *dict.Dict, triples []dict.Triple) *Store {
	return BuildSorted(d, Merge(nil, triples, nil))
}

// BuildSorted is Build over triples already sorted by (S,P,O) and duplicate
// free, which the store keeps as its SPO run — shared, and never written by
// either side — so that only the POS and OSP runs are sorted.
func BuildSorted(d *dict.Dict, spo []dict.Triple) *Store {
	return (&Store{d: d}).Apply(spo, spo, nil)
}

// Apply returns the store over spo: st's triples without removed and with
// added (set semantics: a triple in both ends up present), sorted by
// (S,P,O) and duplicate free — what Merge makes of st.Triples() and the
// delta, or a graph's AllTriples after the write that reported the delta.
// The store keeps spo as its SPO run, shared and never written by either
// side; the POS and OSP runs are made concurrently, each sorting the delta
// its own way and merging it into st's run in one pass. st is not changed.
func (st *Store) Apply(spo, added, removed []dict.Triple) *Store {
	out := &Store{d: st.d}
	out.runs[bySPO] = slices.Clip(spo)
	var wg sync.WaitGroup
	for _, o := range []ordering{byPOS, byOSP} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.runs[o] = merge(st.runs[o], added, removed, o)
		}()
	}
	wg.Wait()
	return out
}

// Merge returns run, sorted by (S,P,O) and duplicate free, without the
// triples of del and with those of add, as a fresh run — run itself when
// there is nothing to change. It is the one merge of sorted runs: the
// graph's writes and Apply's orderings go through it.
func Merge(run, add, del []dict.Triple) []dict.Triple { return merge(run, add, del, bySPO) }

// merge is Merge over a run sorted by o.
func merge(run, add, del []dict.Triple, o ordering) []dict.Triple {
	if len(add)+len(del) == 0 {
		return run
	}
	byKey := func(a, b dict.Triple) int {
		ka, kb := o.key(a), o.key(b)
		return slices.Compare(ka[:], kb[:])
	}
	add, del = slices.Clone(add), slices.Clone(del)
	slices.SortFunc(add, byKey)
	slices.SortFunc(del, byKey)
	if add = slices.Compact(add); len(run) == 0 {
		return add
	}
	out := make([]dict.Triple, 0, len(run)+len(add))
	for len(add)+len(del) > 0 {
		// The next edit in key order, an insertion after a deletion of the
		// same triple. What precedes it in run is copied as one block; run's
		// own copy of the triple, if it has one, is passed over either way.
		isDel := len(add) == 0 || len(del) > 0 && byKey(del[0], add[0]) <= 0
		var t dict.Triple
		if isDel {
			t, del = del[0], del[1:]
		} else {
			t, add = add[0], add[1:]
		}
		n, found := slices.BinarySearchFunc(run, t, byKey)
		out = append(out, run[:n]...)
		if run = run[n:]; found {
			run = run[1:]
		}
		if !isDel {
			out = append(out, t)
		}
	}
	return append(out, run...)
}

// Dict returns the dictionary the store is encoded against.
func (st *Store) Dict() *dict.Dict { return st.d }

// Len returns the number of triples in the store.
func (st *Store) Len() int { return len(st.runs[bySPO]) }

// Triples returns the full sorted (S,P,O) triple slice; callers must not
// mutate it.
func (st *Store) Triples() []dict.Triple { return st.runs[bySPO] }

// Contains reports whether the exact triple is present.
func (st *Store) Contains(t dict.Triple) bool {
	lo, hi := rangeOf(st.runs[bySPO], bySPO, [3]dict.ID{t.S, t.P, t.O}, 3)
	return hi > lo
}

// Each calls fn for every triple matching the pattern, in index order,
// stopping early if fn returns false. This is the store's scan primitive.
func (st *Store) Each(pat Pattern, fn func(dict.Triple) bool) {
	o, prefix, nbound := choose(pat)
	idx := st.runs[o]
	lo, hi := rangeOf(idx, o, prefix, nbound)
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
	o, prefix, nbound := choose(pat)
	idx := st.runs[o]
	lo, hi := rangeOf(idx, o, prefix, nbound)
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
// bound positions, returning the ordering, the bound prefix values and the
// prefix length.
func choose(pat Pattern) (o ordering, prefix [3]dict.ID, nbound int) {
	sB, pB, oB := pat.S != dict.None, pat.P != dict.None, pat.O != dict.None
	switch {
	case sB && pB && oB:
		return bySPO, [3]dict.ID{pat.S, pat.P, pat.O}, 3
	case sB && pB:
		return bySPO, [3]dict.ID{pat.S, pat.P, 0}, 2
	case pB && oB:
		return byPOS, [3]dict.ID{pat.P, pat.O, 0}, 2
	case sB && oB:
		// No (S,O)-prefixed ordering: scan the subject's SPO range and
		// filter on O.
		return bySPO, [3]dict.ID{pat.S, 0, 0}, 1
	case sB:
		return bySPO, [3]dict.ID{pat.S, 0, 0}, 1
	case pB:
		return byPOS, [3]dict.ID{pat.P, 0, 0}, 1
	case oB:
		return byOSP, [3]dict.ID{pat.O, 0, 0}, 1
	default:
		return bySPO, [3]dict.ID{}, 0
	}
}

// --- orderings -------------------------------------------------------------

// ordering names the sort order of one of the store's three runs.
type ordering uint8

const (
	bySPO ordering = iota
	byPOS
	byOSP
)

// key returns the triple's sort key under the ordering — a switch, not a
// func value, so that a binary search's comparisons are direct calls.
func (o ordering) key(t dict.Triple) [3]dict.ID {
	switch o {
	case byPOS:
		return [3]dict.ID{t.P, t.O, t.S}
	case byOSP:
		return [3]dict.ID{t.O, t.S, t.P}
	}
	return [3]dict.ID{t.S, t.P, t.O}
}

// rangeOf returns the half-open index range [lo,hi) of triples of idx,
// sorted by o, whose key starts with the first n components of prefix.
func rangeOf(idx []dict.Triple, o ordering, prefix [3]dict.ID, n int) (int, int) {
	if n == 0 {
		return 0, len(idx)
	}
	lo := bound(idx, o, prefix, 0, n, false)
	// Matching ranges are short next to the index (a probe's is a handful of
	// triples): gallop from lo to bracket the end, then search the bracket.
	step := 1
	for lo+step < len(idx) && compareKeys(o.key(idx[lo+step]), prefix, 0, n) == 0 {
		step *= 2
	}
	tail := idx[lo:min(lo+step, len(idx))]
	return lo, lo + bound(tail, o, prefix, 0, n, true)
}

// bound returns the first index of idx, sorted by o, whose key's components
// from to n compare ≥ those of k — or, strict, > them; idx's keys must agree
// before from. One binary search, with no call through a func value.
func bound(idx []dict.Triple, o ordering, k [3]dict.ID, from, n int, strict bool) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := compareKeys(o.key(idx[m]), k, from, n); c < 0 || strict && c == 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// compareKeys compares components from to n of two keys.
func compareKeys(a, b [3]dict.ID, from, n int) int {
	for i := from; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// DistinctInPosition returns the number of distinct values in the given
// position ('s', 'p' or 'o') among triples matching the pattern; used by
// the statistics module for join selectivity estimation.
func (st *Store) DistinctInPosition(pat Pattern, pos byte) int {
	// Where an ordering keeps the position's values in runs — any position
	// with nothing bound, a property's objects — count the runs; otherwise
	// fall back to a set.
	var ordered []dict.Triple
	switch {
	case pat.Bound() == 0 && pos == 's':
		ordered = st.runs[bySPO]
	case pat.Bound() == 0 && pos == 'p':
		ordered = st.runs[byPOS]
	case pat.Bound() == 0:
		ordered = st.runs[byOSP]
	case pos == 'o' && pat == (Pattern{P: pat.P}):
		lo, hi := rangeOf(st.runs[byPOS], byPOS, [3]dict.ID{pat.P}, 1)
		ordered = st.runs[byPOS][lo:hi]
	default:
		set := map[dict.ID]bool{}
		st.Each(pat, func(t dict.Triple) bool {
			set[position(t, pos)] = true
			return true
		})
		return len(set)
	}
	n, last := 0, dict.None // no triple holds None
	for _, t := range ordered {
		if v := position(t, pos); v != last {
			n++
			last = v
		}
	}
	return n
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
