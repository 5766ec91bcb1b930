// Package exec implements the relational executor the reformulated queries
// run on: materialized relations over dictionary IDs, index scans, hash
// joins, unions with set semantics, and projections. It corresponds to the
// RDBMS evaluation layer of the paper's experiments, and exposes the
// per-(sub)query cardinalities the demo's step 3 inspects.
package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/dict"
)

// Relation is a materialized table of dictionary IDs: column names plus
// rows, held row-major in chunks of 1<<shift rows each. Every chunk but the
// last is full, and each is an allocation of its own, of exactly a chunk's
// size once the relation holds half a chunk (grow), so from then on a
// growing relation never copies the rows it holds; row i is in chunk
// i>>shift. A relation with no columns (boolean query) only counts its rows;
// its chunks are empty.
type Relation struct {
	Vars  []string
	full  [][]dict.ID // the chunks before the last, each of 1<<shift rows
	last  []dict.ID   // the last chunk; its capacity never exceeds a chunk's
	rows  int
	width int
	shift uint8 // log2 of a chunk's rows: chunkShift when the relation was made
}

// chunkShift is log2 of the rows in a relation's chunk: 4 096 rows. A larger
// chunk is fewer allocations and chunk switches for a long scan or join, a
// smaller one wastes less in a relation's last chunk and zeroes less. On
// refperf's join_scan (seed 31, 15 s, 2 cores, two runs each, interleaved)
// 4 096 rows cost 3.62 ms of CPU an op against 3.72 at 1 024 rows and 3.80
// at 16 384. A variable so that tests can cut chunks to a row or a few; a
// relation keeps the size it was made with.
var chunkShift uint8 = 12

// NewRelation returns an empty relation with the given columns.
func NewRelation(vars []string) *Relation {
	return &Relation{Vars: vars, width: len(vars), shift: chunkShift}
}

// Width returns the number of columns.
func (r *Relation) Width() int { return r.width }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.rows }

// Row returns the i-th row as a slice view; callers must not mutate it.
func (r *Relation) Row(i int) []dict.ID {
	ch := r.last
	if c := i >> r.shift; c < len(r.full) {
		ch = r.full[c]
	}
	j := (i & (1<<r.shift - 1)) * r.width
	return ch[j : j+r.width]
}

// chunks returns the number of chunks the rows span; a relation with no
// columns spans them too, with every chunk empty.
func (r *Relation) chunks() int { return (r.rows + 1<<r.shift - 1) >> r.shift }

// chunk returns chunk c's rows, row-major, and their number.
func (r *Relation) chunk(c int) ([]dict.ID, int) {
	n := min(1<<r.shift, r.rows-c<<r.shift)
	if c < len(r.full) {
		return r.full[c], n
	}
	return r.last, n
}

// grow makes room in the last chunk for at least one of n more rows. A full
// last chunk is sealed and a new one allocated whole. A chunk short of full
// size — the first, or a view's clipped last — grows as a slice does while
// it stays under half a chunk, so a relation that small allocates what a
// plain slice would; past that it is reallocated once, at a chunk's exact
// size.
func (r *Relation) grow(n int) {
	size := r.width << r.shift
	switch {
	case len(r.last) == size:
		r.full = append(r.full, r.last)
		r.last = make([]dict.ID, 0, size)
	case 2*cap(r.last) < size && 2*(len(r.last)+n*r.width) <= size:
		grown := slices.Grow(r.last, n*r.width)
		r.last = grown[:len(grown):min(cap(grown), size)]
	default:
		r.last = append(make([]dict.ID, 0, size), r.last...)
	}
}

// Append adds one row (copied); a zero-width row only counts.
func (r *Relation) Append(row []dict.ID) {
	if len(row) != r.width {
		panic(fmt.Sprintf("exec: row width %d != relation width %d", len(row), r.width))
	}
	if cap(r.last)-len(r.last) < r.width {
		r.grow(1)
	}
	r.last, r.rows = append(r.last, row...), r.rows+1
}

// extend adds one row and returns it for the caller to fill in place.
func (r *Relation) extend() []dict.ID {
	if cap(r.last)-len(r.last) < r.width {
		r.grow(1)
	}
	n := len(r.last)
	r.last, r.rows = r.last[:n+r.width], r.rows+1
	return r.last[n:]
}

// room returns the free part of the last chunk, which grow makes room in,
// for up to n more rows, when it has not a row's. Its length need not be a
// multiple of the width: a capacity that rounds up past a row is left
// unused, as append leaves it.
func (r *Relation) room(n int) []dict.ID {
	if cap(r.last)-len(r.last) < r.width {
		r.grow(n)
	}
	return r.last[len(r.last):cap(r.last)]
}

// appendRows appends as many of the row-major rows in ids (the width is not
// zero) as the last chunk has room for, and returns the rest.
func (r *Relation) appendRows(ids []dict.ID) []dict.ID {
	room := r.room(len(ids) / r.width)
	n := copy(room[:len(room)/r.width*r.width], ids)
	r.last, r.rows = r.last[:len(r.last)+n], r.rows+n/r.width
	return ids[n:]
}

// appendRelation appends o's rows, a chunk at a time, polling check once
// per chunk.
func (r *Relation) appendRelation(o *Relation, check func() error) error {
	if r.width == 0 {
		r.rows += o.rows
		return nil
	}
	for c := 0; c < o.chunks(); c++ {
		if err := check(); err != nil {
			return err
		}
		ids, _ := o.chunk(c)
		for len(ids) > 0 {
			ids = r.appendRows(ids)
		}
	}
	return nil
}

// appendColumns appends a row for each of as many of the triples ts as the
// last chunk has room for, and returns the rest: column col[p] takes the
// triple's position p (-1: no column), and every column is some position's.
// The rows are written straight into the chunk.
func (r *Relation) appendColumns(ts []dict.Triple, col [3]int) []dict.Triple {
	n := min(len(ts), len(r.room(len(ts)))/r.width)
	end := len(r.last) + n*r.width
	fillColumns(r.last[len(r.last):end], ts[:n], col, r.width)
	r.last, r.rows = r.last[:end], r.rows+n
	return ts[n:]
}

// fillColumns writes the rows of width w that appendColumns appends for ts
// into dst, which has room for exactly those rows.
func fillColumns(dst []dict.ID, ts []dict.Triple, col [3]int, w int) {
	for _, t := range ts {
		if col[0] >= 0 {
			dst[col[0]] = t.S
		}
		if col[1] >= 0 {
			dst[col[1]] = t.P
		}
		if col[2] >= 0 {
			dst[col[2]] = t.O
		}
		dst = dst[w:]
	}
}

// ColumnIndex returns the index of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, v := range r.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Snapshot returns an immutable deep copy: each chunk is copied, the last
// clipped to its length (cap == len), so appending to any view of it must
// reallocate and can never scribble over the copy. The view cache stores
// snapshots.
func (r *Relation) Snapshot() *Relation {
	s := &Relation{Vars: append([]string(nil), r.Vars...), rows: r.rows, width: r.width, shift: r.shift}
	if len(r.full) > 0 {
		s.full = make([][]dict.ID, len(r.full))
		for c, ch := range r.full {
			s.full[c] = slices.Clone(ch)
		}
	}
	s.last = slices.Clip(slices.Clone(r.last))
	return s
}

// RenamedView returns a read-only alias of r with its columns renamed
// positionally to vars (len(vars) must equal the width). The view shares
// r's chunks but clips its last chunk and its chunk list to their length:
// appending to the view reallocates instead of mutating r. Cache hits hand
// these out so one cached fragment result can serve queries that spell the
// head variables differently.
func (r *Relation) RenamedView(vars []string) (*Relation, error) {
	if len(vars) != r.width {
		return nil, fmt.Errorf("exec: rename to %d columns, relation has %d", len(vars), r.width)
	}
	return &Relation{
		Vars:  append([]string(nil), vars...),
		full:  slices.Clip(r.full),
		last:  slices.Clip(r.last),
		rows:  r.rows,
		width: r.width,
		shift: r.shift,
	}, nil
}

// ids returns the number of IDs the relation's rows hold.
func (r *Relation) ids() int { return r.rows * r.width }

// SizeBytes estimates the relation's resident size: row storage plus
// column-name headers plus the struct itself. The view cache charges
// entries against its byte budget with this.
func (r *Relation) SizeBytes() int64 {
	n := int64(r.ids()) * 4 // dict.ID is 4 bytes
	for _, v := range r.Vars {
		n += int64(len(v)) + 16 // string header
	}
	return n + 64 + 24*int64(len(r.full)) // struct, slice headers and chunk list
}

// SortFirst orders the relation so that its first n rows are its n smallest
// in lexicographic order — all of its rows when n ≥ Len() — and the rest
// follow in no stated order: a response of n rows sorts n rows, picked in one
// pass by a heap, not the whole answer. Rows already in place — a single
// index scan's, say — cost one comparison each; otherwise the rows are
// copied in their new order into chunks of their own, so a relation sharing
// its chunks (a view cache hit's) is never reordered under its other
// readers.
func (r *Relation) SortFirst(n int) {
	n = min(n, r.rows)
	if r.width == 0 || n <= 0 {
		return
	}
	cmp := func(a, b int32) int { return slices.Compare(r.Row(int(a)), r.Row(int(b))) }
	inPlace := true
	//reflint:noguard one comparison per row of a finished answer, like the sort it spares
	for i := 1; i < r.rows && inPlace; i++ {
		inPlace = cmp(int32(min(i, n)-1), int32(i)) <= 0
	}
	if inPlace {
		return
	}
	idx := make([]int32, r.rows)
	for i := range idx {
		idx[i] = int32(i)
	}
	// idx[:n] is a max-heap of the n smallest rows seen so far: a later row
	// smaller than its top takes the top's place.
	top := idx[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(top, i, cmp)
	}
	for k, i := range idx[n:] {
		if cmp(i, top[0]) < 0 {
			idx[n+k], top[0] = top[0], i
			siftDown(top, 0, cmp)
		}
	}
	slices.SortFunc(top, cmp)
	// The rows in their new order, each chunk allocated at its exact size.
	size := 1 << r.shift
	var full [][]dict.ID
	last := make([]dict.ID, 0, min(size, r.rows)*r.width)
	for k, i := range idx {
		if len(last) == cap(last) {
			full, last = append(full, last), make([]dict.ID, 0, min(size, r.rows-k)*r.width)
		}
		last = append(last, r.Row(int(i))...)
	}
	r.full, r.last = full, last
}

// siftDown moves h[i] down the max-heap h until no child is larger.
func siftDown(h []int32, i int, cmp func(a, b int32) int) {
	size := len(h)
	for c := 2*i + 1; c < size; c = 2*i + 1 {
		if c+1 < size && cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if cmp(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Equal reports whether two relations hold the same row *sets* over the
// same columns (order-insensitive); used by tests comparing strategies.
func (r *Relation) Equal(o *Relation) bool {
	if r.width != o.width || !slices.Equal(r.Vars, o.Vars) {
		return false
	}
	a, b := NewSet(r.Vars), NewSet(o.Vars)
	_ = a.insertAll(r, nil) // nil check: never stops
	_ = b.insertAll(o, nil)
	n := a.Rows.rows
	_ = a.insertAll(b.Rows, nil)
	return a.Rows.rows == n && b.Rows.rows == n
}

// String renders the relation's columns and row count, for debugging.
func (r *Relation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s) %d rows", strings.Join(r.Vars, ", "), r.rows)
	return sb.String()
}

// Set is a relation with set semantics: Rows holds distinct rows in the
// order they were first added, and a chained hash index over all columns
// finds an equal row. Every union of the executor is one Set — each row its
// members produce is offered once, here — so duplicates are removed where
// rows enter a result, never by a pass over a finished relation. Rows must
// grow through Add only.
type Set struct {
	Rows *Relation
	idx  rowTable // over all columns of Rows; grows with it
}

// NewSet returns an empty set with the given columns.
func NewSet(vars []string) *Set { return &Set{Rows: NewRelation(vars), idx: newRowTable(0)} }

// Add inserts a copy of row unless an equal row is present.
func (s *Set) Add(row []dict.ID) { s.insert(row) }

// insert is Add that also returns the index in Rows of the row equal to
// row, and whether it was added.
func (s *Set) insert(row []dict.ID) (int, bool) {
	r := s.Rows
	if r.width == 0 {
		if r.rows > 0 {
			return 0, false
		}
		r.rows = 1
		return 0, true
	}
	h := hashRow(row)
	for k := s.idx.chain(h); k != 0; k = s.idx.next[k-1] {
		if slices.Equal(r.Row(int(k-1)), row) {
			return int(k - 1), false
		}
	}
	i := r.rows
	r.Append(row)
	s.idx.next = append(s.idx.next, 0)
	if i < len(s.idx.head) {
		s.idx.add(h, i)
	} else {
		s.rehash()
	}
	return i, true
}

// rehash doubles the buckets, keeping at most one row per bucket on
// average, and chains every row again.
func (s *Set) rehash() {
	b := uint(bits.Len(uint(len(s.idx.next))))
	s.idx.head, s.idx.shift = make([]int32, 1<<b), 64-b
	for i := range s.idx.next {
		s.idx.add(hashRow(s.Rows.Row(i)), i)
	}
}

// insertAll adds every row of rel, polling check (nil: never stops) every
// checkEvery rows.
func (s *Set) insertAll(rel *Relation, check func() error) error {
	for i := 0; i < rel.Len(); i++ {
		if check != nil && i&(checkEvery-1) == checkEvery-1 {
			if err := check(); err != nil {
				return err
			}
		}
		s.insert(rel.Row(i))
	}
	return nil
}

// rowTable chains row numbers by a hash of some of their columns: a
// power-of-two array of chain heads indexed by the top bits of the hash times
// hashMix. A lookup walks the chain and compares the columns themselves, so a
// bucket collision costs a comparison, never a wrong match.
type rowTable struct {
	head  []int32 // bucket → 1 + the row added last to it
	next  []int32 // row → 1 + the row added before it to the same bucket
	shift uint    // 64 − log2(len(head))
}

// hashMix spreads a hash over the bucket bits; a variable so that a test can
// send every row to one bucket.
var hashMix uint64 = 0x9e3779b97f4a7c15

func newRowTable(rows int) rowTable {
	b := uint(bits.Len(uint(rows)))
	return rowTable{head: make([]int32, 1<<b), next: make([]int32, rows), shift: 64 - b}
}

// chain returns 1 + the last row added under hash h's bucket (0: none).
func (t rowTable) chain(h uint64) int32 { return t.head[(h*hashMix)>>t.shift] }

func (t rowTable) add(h uint64, row int) {
	b := (h * hashMix) >> t.shift
	t.next[row], t.head[b] = t.head[b], int32(row+1)
}

// hashCols hashes the given columns of a row (FNV-1a over the IDs).
func hashCols(row []dict.ID, cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = (h ^ uint64(row[c])) * 1099511628211
	}
	return h
}

// hashRow is hashCols over every column.
func hashRow(row []dict.ID) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range row {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}
