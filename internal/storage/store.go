// Package storage implements the dictionary-encoded triple store the
// reformulated queries are evaluated against: one logical triples table with
// three sorted permutation indexes (SPO, POS, OSP), supporting
// binary-searched range scans for every triple-pattern shape. This plays
// the role of the RDBMS back-ends of the paper (a Triples(s,p,o) table with
// clustered indexes), and exposes the exact-count primitives the statistics
// and cost modules build on.
//
// Each index is a Run: a spine of sorted, immutable blocks. A write makes a
// new store whose runs rewrite only the blocks an edit falls in and share
// every other block with the store before it, so its cost follows what it
// touches, not the size of the data. A scan's bound is two binary searches,
// one over the blocks' fences and one inside a block, and a scan hands its
// caller whole blocks (EachRun) — the executor's batch. Dictionary IDs are
// dense 32-bit integers, so every search compares a triple's key under an
// ordering packed into one 96-bit integer.
package storage

import (
	"cmp"
	"math/bits"
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
	runs [3]*Run // the triples sorted by each ordering: SPO, POS, OSP
}

// Build sorts the given triples into the three permutations and returns the
// store. The input slice is not retained; duplicates are removed.
func Build(d *dict.Dict, triples []dict.Triple) *Store {
	return BuildSorted(d, NewRun(Merge(nil, triples, nil)))
}

// BuildSorted is Build over a run sorted by (S,P,O), which the store keeps
// as its SPO run — shared, and never written by either side — so that only
// the POS and OSP runs are made.
func BuildSorted(d *dict.Dict, spo *Run) *Store {
	empty := &Store{d: d}
	for _, o := range []ordering{byPOS, byOSP} {
		empty.runs[o] = newRun(o, nil, spo.size)
	}
	return empty.Apply(spo, spo.Triples(), nil)
}

// Apply returns the store over spo: st's triples without removed and with
// added (set semantics: a triple in both ends up present), sorted by
// (S,P,O) — what st's SPO run's Apply makes of the delta, or a graph's D
// after the write that reported it. The store keeps spo as its SPO run,
// shared and never written by either side; the POS and OSP runs are made
// concurrently, each the Apply of st's run of that ordering, which sorts
// the delta its own way and rewrites only the blocks it touches. st is not
// changed.
func (st *Store) Apply(spo *Run, added, removed []dict.Triple) *Store {
	out := &Store{d: st.d}
	out.runs[bySPO] = spo
	var wg sync.WaitGroup
	for _, o := range []ordering{byPOS, byOSP} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.runs[o] = st.runs[o].Apply(added, removed)
		}()
	}
	wg.Wait()
	return out
}

// Merge returns run, sorted by (S,P,O) and duplicate free, without the
// triples of del and with those of add, as a fresh slice — run itself when
// there is nothing to change.
func Merge(run, add, del []dict.Triple) []dict.Triple {
	if len(add)+len(del) == 0 {
		return run
	}
	add, del = slices.Compact(bySPO.sorted(add)), bySPO.sorted(del)
	if len(run) == 0 {
		return add
	}
	return merge(make([]dict.Triple, 0, len(run)+len(add)), run, add, del, bySPO)
}

// merge appends to dst run, sorted by o, without the triples of del and with
// those of add, both sorted by o and add duplicate free. It is the one merge
// of sorted runs: Merge, and a Run's Apply for every block it rewrites, go
// through it.
func merge(dst, run, add, del []dict.Triple, o ordering) []dict.Triple {
	for len(add)+len(del) > 0 {
		// The next edit in key order, an insertion after a deletion of the
		// same triple. What precedes it in run is copied as one block; run's
		// own copy of the triple, if it has one, is passed over either way.
		isDel := len(add) == 0 || len(del) > 0 && !o.key(add[0]).less(o.key(del[0]))
		var t dict.Triple
		if isDel {
			t, del = del[0], del[1:]
		} else {
			t, add = add[0], add[1:]
		}
		n := search(run, o, o.key(t))
		dst = append(dst, run[:n]...)
		if run = run[n:]; len(run) > 0 && run[0] == t {
			run = run[1:]
		}
		if !isDel {
			dst = append(dst, t)
		}
	}
	return append(dst, run...)
}

// Dict returns the dictionary the store is encoded against.
func (st *Store) Dict() *dict.Dict { return st.d }

// Len returns the number of triples in the store.
func (st *Store) Len() int { return st.runs[bySPO].Len() }

// SPO returns the store's SPO run: at one shard, the graph's D itself.
func (st *Store) SPO() *Run { return st.runs[bySPO] }

// Triples returns the full sorted (S,P,O) triple slice, a copy made on
// demand.
func (st *Store) Triples() []dict.Triple { return st.runs[bySPO].Triples() }

// Contains reports whether the exact triple is present.
func (st *Store) Contains(t dict.Triple) bool { return st.runs[bySPO].Contains(t) }

// Each calls fn for every triple matching the pattern, in index order,
// stopping early if fn returns false. This is the store's scan primitive.
func (st *Store) Each(pat Pattern, fn func(dict.Triple) bool) {
	o, prefix, nbound := choose(pat)
	r := st.runs[o]
	lo, hi, b := r.rangeOf(prefix, nbound)
	// When the bound positions form a prefix of the chosen ordering the
	// range is exact: no residual filtering needed.
	exact := nbound == pat.Bound()
	for ; lo < hi; b++ {
		ts := r.part(lo, hi, b)
		lo += len(ts)
		if exact {
			for _, t := range ts {
				if !fn(t) {
					return
				}
			}
			continue
		}
		for _, t := range ts {
			if pat.Matches(t) && !fn(t) {
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
// prefix-contiguous patterns this is two bound searches; the (S,?,O) shape
// requires a filtered scan of the subject's range.
func (st *Store) Count(pat Pattern) int {
	o, prefix, nbound := choose(pat)
	r := st.runs[o]
	lo, hi, b := r.rangeOf(prefix, nbound)
	if nbound == pat.Bound() {
		return hi - lo
	}
	n := 0
	r.each(lo, hi, b, func(ts []dict.Triple) bool {
		for _, t := range ts {
			if pat.Matches(t) {
				n++
			}
		}
		return true
	})
	return n
}

// choose picks the index ordering whose sort key has the longest prefix of
// bound positions, returning the ordering, the bound prefix values and the
// prefix length.
func choose(pat Pattern) (o ordering, prefix key, nbound int) {
	sB, pB, oB := pat.S != dict.None, pat.P != dict.None, pat.O != dict.None
	switch {
	case sB && pB && oB:
		return bySPO, pack(pat.S, pat.P, pat.O), 3
	case sB && pB:
		return bySPO, pack(pat.S, pat.P, 0), 2
	case pB && oB:
		return byPOS, pack(pat.P, pat.O, 0), 2
	case sB && oB:
		// No (S,O)-prefixed ordering: scan the subject's SPO range and
		// filter on O.
		return bySPO, pack(pat.S, 0, 0), 1
	case sB:
		return bySPO, pack(pat.S, 0, 0), 1
	case pB:
		return byPOS, pack(pat.P, 0, 0), 1
	case oB:
		return byOSP, pack(pat.O, 0, 0), 1
	default:
		return bySPO, key{}, 0
	}
}

// --- orderings -------------------------------------------------------------

// ordering names the sort order of one of the store's three runs: the order
// of the triples' keys under it, each packed into one integer (key).
type ordering uint8

const (
	bySPO ordering = iota
	byPOS
	byOSP
)

// key is a triple's sort key under an ordering, packed so that keys compare
// as integers do: hi holds the first component in its top 32 bits and the
// second in its low 32, lo the third. Dictionary IDs are 32-bit integers, so
// a key under any ordering is one 96-bit integer, built in registers, and a
// comparison is at most two integer comparisons. A prefix of n components is
// the key under the mask of its first n components (prefix): zero beyond
// them, so a key compares with a prefix as its own first n components do —
// a search for a prefix is a search for an integer.
type key struct {
	hi uint64
	lo uint32
}

func pack(a, b, c dict.ID) key { return key{hi: uint64(a)<<32 | uint64(b), lo: uint32(c)} }

func keySPO(t dict.Triple) key { return pack(t.S, t.P, t.O) }
func keyPOS(t dict.Triple) key { return pack(t.P, t.O, t.S) }
func keyOSP(t dict.Triple) key { return pack(t.O, t.S, t.P) }

// key returns the triple's sort key under the ordering.
func (o ordering) key(t dict.Triple) key {
	switch o {
	case byPOS:
		return keyPOS(t)
	case byOSP:
		return keyOSP(t)
	}
	return keySPO(t)
}

// masks[n] keeps a key's first n components; units[n] is one in the last
// of them.
var (
	masks = [4]key{{}, {hi: 0xffffffff << 32}, {hi: ^uint64(0)}, {hi: ^uint64(0), lo: ^uint32(0)}}
	units = [4]key{{}, {hi: 1 << 32}, {hi: 1}, {lo: 1}}
)

// prefix returns k's first n components, the others zero.
func (k key) prefix(n int) key { return key{hi: k.hi & masks[n].hi, lo: k.lo & masks[n].lo} }

// with returns k with component i, zero in k, set to id.
func (k key) with(i int, id dict.ID) key {
	switch i {
	case 0:
		k.hi |= uint64(id) << 32
	case 1:
		k.hi |= uint64(id)
	default:
		k.lo = uint32(id)
	}
	return k
}

// next returns the n-component prefix that follows k's, which must be one
// (zero beyond n): k plus one in its last component, carried. It reports
// false when none follows — n is 0, or k's components are all the largest
// ID, where the sum would wrap to a key before k.
func (k key) next(n int) (key, bool) {
	lo, carry := bits.Add32(k.lo, units[n].lo, 0)
	hi, carry64 := bits.Add64(k.hi, units[n].hi, uint64(carry))
	return key{hi: hi, lo: lo}, n > 0 && carry64 == 0
}

// less reports whether k sorts before o.
func (k key) less(o key) bool { return k.hi < o.hi || k.hi == o.hi && k.lo < o.lo }

// compare orders two keys.
func (k key) compare(o key) int {
	if c := cmp.Compare(k.hi, o.hi); c != 0 {
		return c
	}
	return cmp.Compare(k.lo, o.lo)
}

// sorted returns a sorted copy of ts, the ordering resolved once for the
// whole sort.
func (o ordering) sorted(ts []dict.Triple) []dict.Triple {
	ts = slices.Clone(ts)
	switch o {
	case byPOS:
		slices.SortFunc(ts, func(a, b dict.Triple) int { return keyPOS(a).compare(keyPOS(b)) })
	case byOSP:
		slices.SortFunc(ts, func(a, b dict.Triple) int { return keyOSP(a).compare(keyOSP(b)) })
	default:
		slices.SortFunc(ts, func(a, b dict.Triple) int { return keySPO(a).compare(keySPO(b)) })
	}
	return ts
}

// bound returns the first index of ts, sorted by o, whose key's first n
// components compare ≥ those of k — or, strict, > them: a search for k's
// prefix, or for the prefix after it (the end of ts when none follows).
func bound(ts []dict.Triple, o ordering, k key, n int, strict bool) int {
	k = k.prefix(n)
	if strict {
		var ok bool
		if k, ok = k.next(n); !ok {
			return len(ts)
		}
	}
	return search(ts, o, k)
}

// search returns the first index of ts, sorted by o, whose key is ≥ k: one
// binary search, the ordering resolved once, so that each step packs a key
// and compares two integers, with no switch and no call.
func search(ts []dict.Triple, o ordering, k key) int {
	switch o {
	case byPOS:
		return lowerBound(ts, k, keyPOS)
	case byOSP:
		return lowerBound(ts, k, keyOSP)
	}
	return lowerBound(ts, k, keySPO)
}

// lowerBound is search under one ordering's key function, small enough to
// be inlined at each of search's calls, where keyOf is then a direct call
// inlined in turn.
func lowerBound(ts []dict.Triple, k key, keyOf func(dict.Triple) key) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keyOf(ts[m]).less(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// DistinctInPosition returns the number of distinct values in the given
// position ('s', 'p' or 'o') among triples matching the pattern; used by
// the statistics module for join selectivity estimation.
func (st *Store) DistinctInPosition(pat Pattern, pos byte) int {
	// Where an ordering keeps the position's values in runs — any position
	// with nothing bound, a property's objects — count the runs; otherwise
	// fall back to a set.
	var r *Run
	var prefix key
	n := 0
	switch {
	case pat.Bound() == 0 && pos == 's':
		r = st.runs[bySPO]
	case pat.Bound() == 0 && pos == 'p':
		r = st.runs[byPOS]
	case pat.Bound() == 0:
		r = st.runs[byOSP]
	case pos == 'o' && pat == (Pattern{P: pat.P}):
		r, prefix, n = st.runs[byPOS], pack(pat.P, 0, 0), 1
	default:
		set := map[dict.ID]bool{}
		st.Each(pat, func(t dict.Triple) bool {
			set[position(t, pos)] = true
			return true
		})
		return len(set)
	}
	lo, hi, b := r.rangeOf(prefix, n)
	distinct, last := 0, dict.None // no triple holds None
	r.each(lo, hi, b, func(ts []dict.Triple) bool {
		for _, t := range ts {
			if v := position(t, pos); v != last {
				distinct++
				last = v
			}
		}
		return true
	})
	return distinct
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
