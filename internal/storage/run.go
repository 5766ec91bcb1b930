package storage

import (
	"slices"

	"repro/internal/dict"
)

// blockSize is the number of triples a run is cut into blocks of. A write
// rewrites every block an edit falls in, so a smaller block makes a write
// cheaper; a scan pays one fence search per bound and one call per block,
// so a larger block makes a long scan cheaper. On refperf (seed 5, two runs
// each, 2 cores), 512 triples cost join_scan 3 % of its throughput against
// 1 024 (264–267 against 273–275 ops/s) and won mixed_rw nothing (p95
// 0.30–0.31 ms either way); 4 096 gained join_scan 2 % (279–280) but cost
// mixed_rw 5–8 % (p95 0.32–0.33 ms, CPU 0.22 against 0.20 ms an op). 1 024
// triples are 12 KiB, an allocator size class, so a block cut at that size
// wastes nothing.
const blockSize = 1024

// Run is a sorted, duplicate-free sequence of triples under one ordering,
// held as a spine of immutable blocks. A write makes a new run that rewrites
// only the blocks an edit falls in and shares every other block with the
// run it was made from, so a published run is never written and any number
// of versions share what they have in common. A scan finds its bounds with
// two binary searches, one over the blocks' fences and one inside a block,
// and reads the blocks between whole. Every search compares packed keys (a
// triple's key under the run's ordering is one 96-bit integer, a prefix of
// it that integer masked), so a step is two integer comparisons.
type Run struct {
	o    ordering
	size int // the block size the run is cut to: blockSize, smaller in tests
	// blocks are each sorted, non-empty and their own exactly sized
	// allocation — never a window into a larger array, which a rewritten
	// sibling would keep alive.
	blocks [][]dict.Triple
	fences []dict.Triple // fences[i] is blocks[i][0]
	ends   []int         // ends[i] is the number of triples in blocks[:i+1]
}

// NewRun returns the run of spo, triples sorted by (S,P,O) and duplicate
// free: the order of a graph's D and of a store's SPO run. spo is copied,
// not retained.
func NewRun(spo []dict.Triple) *Run { return newRun(bySPO, spo, blockSize) }

// newRun returns the run of ts, sorted by o and duplicate free, in blocks
// of about size triples.
func newRun(o ordering, ts []dict.Triple, size int) *Run {
	r := &Run{o: o, size: size}
	r.appendCut(ts)
	return r
}

// appendCut appends ts to the run's blocks, each a copy: blocks of the
// run's size while more than twice that remain, then the rest as one
// block. A block of exactly blockSize triples is exactly an allocator size
// class.
func (r *Run) appendCut(ts []dict.Triple) {
	for len(ts) > 0 {
		n := len(ts)
		if n > 2*r.size {
			n = r.size
		}
		r.blocks = append(r.blocks, slices.Clip(slices.Clone(ts[:n])))
		r.fences, r.ends = append(r.fences, ts[0]), append(r.ends, r.Len()+n)
		ts = ts[n:]
	}
}

// appendShared appends blocks [from,to) of src, shared, with their fences
// and ends — read off src's, not off the blocks, which a write does not
// touch.
func (r *Run) appendShared(src *Run, from, to int) {
	shift := r.Len() - src.start(from)
	r.blocks = append(r.blocks, src.blocks[from:to]...)
	r.fences = append(r.fences, src.fences[from:to]...)
	for _, end := range src.ends[from:to] {
		r.ends = append(r.ends, end+shift)
	}
}

// Len returns the number of triples in the run.
func (r *Run) Len() int {
	if len(r.ends) == 0 {
		return 0
	}
	return r.ends[len(r.ends)-1]
}

// Triples returns the run as one fresh slice: a copy, built on demand, for
// callers that need the triples flat.
func (r *Run) Triples() []dict.Triple {
	out := make([]dict.Triple, 0, r.Len())
	for _, b := range r.blocks {
		out = append(out, b...)
	}
	return out
}

// Each calls fn with the run's blocks in order, stopping early if fn
// returns false. Callers must not modify a block.
func (r *Run) Each(fn func([]dict.Triple) bool) {
	for _, b := range r.blocks {
		if !fn(b) {
			return
		}
	}
}

// Contains reports whether the run holds the triple.
func (r *Run) Contains(t dict.Triple) bool {
	lo, hi, _ := r.rangeOf(r.o.key(t), 3)
	return hi > lo
}

// Apply returns the run without the triples of del and with those of add
// (set semantics: a triple in both ends up present); r is not changed. The
// delta is sorted once, and each edit is routed to its block by the fences:
// every block an edit falls in is rewritten through merge — split when it
// grows past twice the block size, dropped when it empties — and every other
// block is r's, shared.
func (r *Run) Apply(add, del []dict.Triple) *Run {
	if len(add)+len(del) == 0 {
		return r
	}
	add, del = slices.Compact(r.o.sorted(add)), r.o.sorted(del)
	n := len(r.blocks) + 1
	out := &Run{o: r.o, size: r.size, blocks: make([][]dict.Triple, 0, n),
		fences: make([]dict.Triple, 0, n), ends: make([]int, 0, n)}
	if len(r.blocks) == 0 {
		out.appendCut(add)
		return out
	}
	var merged []dict.Triple // one buffer for every rewritten block
	b := 0
	for len(add)+len(del) > 0 {
		// The next edit in key order falls in the last block whose fence is
		// not past it (the first block when every fence is).
		t := add
		if len(add) == 0 || len(del) > 0 && r.o.key(del[0]).less(r.o.key(add[0])) {
			t = del
		}
		at := b + bound(r.fences[b+1:], r.o, r.o.key(t[0]), 3, true)
		out.appendShared(r, b, at)
		// Its edits are those before the next block's fence.
		na, nd := len(add), len(del)
		if at+1 < len(r.fences) {
			next := r.o.key(r.fences[at+1])
			na, nd = search(add, r.o, next), search(del, r.o, next)
		}
		merged = merge(slices.Grow(merged[:0], len(r.blocks[at])+na), r.blocks[at], add[:na], del[:nd], r.o)
		out.appendCut(merged)
		add, del, b = add[na:], del[nd:], at+1
	}
	out.appendShared(r, b, len(r.blocks))
	return out
}

// start returns the position of block b's first triple.
func (r *Run) start(b int) int {
	if b == 0 {
		return 0
	}
	return r.ends[b-1]
}

// seek returns the position of the first triple, in block from or later,
// whose key's first n components compare ≥ those of k — or, strict, > them —
// and the block holding it (len(blocks) at the end of the run): one binary
// search over the fences, one inside the block they bracket.
func (r *Run) seek(k key, n int, strict bool, from int) (pos, b int) {
	if from >= len(r.blocks) {
		return r.Len(), len(r.blocks)
	}
	b = from + bound(r.fences[from+1:], r.o, k, n, strict)
	blk := r.blocks[b]
	if i := bound(blk, r.o, k, n, strict); i < len(blk) {
		return r.start(b) + i, b
	}
	return r.ends[b], b + 1
}

// rangeOf returns the positions [lo,hi) of the triples whose key starts with
// the first n components of prefix, and the block holding lo. A triple is in
// the range when its key under the prefix mask equals the masked prefix.
func (r *Run) rangeOf(prefix key, n int) (lo, hi, b int) {
	if n == 0 {
		return 0, r.Len(), 0
	}
	prefix = prefix.prefix(n)
	lo, b = r.seek(prefix, n, false, 0)
	if b == len(r.blocks) {
		return lo, lo, b
	}
	// Matching ranges are short next to the run (a probe's is a handful of
	// triples): gallop from lo to bracket the end inside lo's block, and
	// search the fences only when the range runs past it.
	blk, i := r.blocks[b], lo-r.start(b)
	step := 1
	for i+step < len(blk) && r.o.key(blk[i+step]).prefix(n) == prefix {
		step *= 2
	}
	if i+step < len(blk) {
		return lo, lo + bound(blk[i:i+step], r.o, prefix, n, true), b
	}
	hi, _ = r.seek(prefix, n, true, b)
	return lo, hi, b
}

// part returns block b's share of the positions [lo,hi), lo in block b.
func (r *Run) part(lo, hi, b int) []dict.Triple {
	s := r.start(b)
	return r.blocks[b][lo-s : min(hi, r.ends[b])-s]
}

// each calls fn with the triples at positions [lo,hi), block b holding lo,
// one block's share at a time, and reports false if fn stopped it.
func (r *Run) each(lo, hi, b int, fn func([]dict.Triple) bool) bool {
	for ; lo < hi; b++ {
		ts := r.part(lo, hi, b)
		if lo += len(ts); !fn(ts) {
			return false
		}
	}
	return true
}
