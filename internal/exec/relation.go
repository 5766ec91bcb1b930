// Package exec implements the relational executor the reformulated queries
// run on: materialized relations over dictionary IDs, index scans, hash
// joins, unions with set semantics, and projections. It corresponds to the
// RDBMS evaluation layer of the paper's experiments, and exposes the
// per-(sub)query cardinalities the demo's step 3 inspects.
package exec

import (
	"cmp"
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
// i>>shift. (SortFirst cuts its chunks from one allocation, each clipped to
// its length, so an append still never writes into another chunk.) A
// relation with no columns (boolean query) only counts its rows; its chunks
// are empty.
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

// columnIndex returns the index of the named column, or -1.
func (r *Relation) columnIndex(name string) int {
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
// index scan's, say — cost one comparison each. Otherwise the rows are
// copied, a chunk at a time, into one allocation that the heap orders in
// place and the new chunks are cut from, so a relation sharing its chunks (a
// view cache hit's) is never reordered under its other readers. Rows are
// compared where they lie, one ID to one ID when there is one column.
func (r *Relation) SortFirst(n int) {
	n = min(n, r.rows)
	if r.width == 0 || n <= 0 {
		return
	}
	inPlace, i := true, 0
	var prev []dict.ID // row min(i, n)-1, which row i must not be smaller than
	//reflint:noguard one comparison per row of a finished answer, like the sort it spares
	for c := 0; c < r.chunks() && inPlace; c++ {
		ids, k := r.chunk(c)
		for j := 0; j < k && inPlace; j++ {
			row := ids[j*r.width : (j+1)*r.width]
			inPlace = prev == nil || compareRows(prev, row) <= 0
			if i++; i <= n {
				prev = row
			}
		}
	}
	if inPlace {
		return
	}
	ids := make([]dict.ID, 0, r.ids())
	for _, ch := range r.full {
		ids = append(ids, ch...)
	}
	h := rowHeap{ids: append(ids, r.last...), w: r.width, rows: r.rows}
	h.selectFirst(n)
	size := r.width << r.shift
	r.full = make([][]dict.ID, (r.rows-1)>>r.shift)
	for c := range r.full {
		r.full[c] = h.ids[c*size : (c+1)*size : (c+1)*size]
	}
	r.last = h.ids[len(r.full)*size:]
}

// compareRows compares two rows of one width lexicographically.
func compareRows(a, b []dict.ID) int {
	if len(a) == 1 {
		return cmp.Compare(a[0], b[0])
	}
	return slices.Compare(a, b)
}

// rowHeap is SortFirst's heap: rows of width w, row-major in ids.
type rowHeap struct {
	ids     []dict.ID
	w, rows int
}

// selectFirst orders the rows so that the first n are the n smallest, in
// order. The first n rows are a max-heap of the n smallest rows seen so far:
// a later row smaller than its top takes the top's place. Then a heapsort
// moves the largest of them last, and so on.
func (h rowHeap) selectFirst(n int) {
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
	for i := n; i < h.rows; i++ {
		if h.compare(i, 0) < 0 {
			h.swap(i, 0)
			h.siftDown(0, n)
		}
	}
	for k := n - 1; k > 0; k-- {
		h.swap(0, k)
		h.siftDown(0, k)
	}
}

// compare compares rows a and b: one ID to one ID when there is one column.
func (h rowHeap) compare(a, b int) int {
	if h.w == 1 {
		return cmp.Compare(h.ids[a], h.ids[b])
	}
	return slices.Compare(h.ids[a*h.w:(a+1)*h.w], h.ids[b*h.w:(b+1)*h.w])
}

// swap exchanges rows a and b.
func (h rowHeap) swap(a, b int) {
	if h.w == 1 {
		h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
		return
	}
	x, y := h.ids[a*h.w:(a+1)*h.w], h.ids[b*h.w:(b+1)*h.w]
	for k := range x {
		x[k], y[k] = y[k], x[k]
	}
}

// siftDown moves row i down the max-heap of the first size rows until no
// child is larger.
func (h rowHeap) siftDown(i, size int) {
	for c := 2*i + 1; c < size; c = 2*i + 1 {
		if c+1 < size && h.compare(c+1, c) > 0 {
			c++
		}
		if h.compare(c, i) <= 0 {
			return
		}
		h.swap(i, c)
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
	a.Add(r)
	b.Add(o)
	n := a.Rows.rows
	a.Add(b.Rows)
	return a.Rows.rows == n && b.Rows.rows == n
}

// String renders the relation's columns and row count, for debugging.
func (r *Relation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s) %d rows", strings.Join(r.Vars, ", "), r.rows)
	return sb.String()
}

// Set is a relation with set semantics: Rows holds distinct rows in the
// order they were first added. Every union of the executor is one Set —
// each row its members produce is offered once, here — so duplicates are
// removed where rows enter a result, never by a pass over a finished
// relation. Rows enter a relation at a time, read a chunk at a time
// (insert); Rows must grow through it only.
//
// A chained hash index over all columns (rowTable) finds an equal row. A set
// of one column trades it for a bitmap over dictionary IDs — bit id is set
// when Rows holds id — once the bitmap is the smaller: checked after each
// chunk, when the bitmap up to the largest ID offered takes at most 4 bytes
// a row, half of the 8–12 the index takes. It grows, doubling, while it
// takes at most 8 bytes a row; an ID that would take it past that hands the
// set back to the index, and a set switches again only once its rows have
// doubled. IDs are dense from 1, so a bitmap never exceeds dict.Len()/8
// bytes. Rows and their order are the same either way.
type Set struct {
	Rows *Relation
	idx  rowTable // chains the rows by hash while bits is nil
	bits []uint64 // a one-column set's bitmap; nil: the index
	hi   dict.ID  // the largest ID a one-column set was offered
}

// NewSet returns an empty set with the given columns.
func NewSet(vars []string) *Set { return &Set{Rows: NewRelation(vars), idx: newRowTable(0)} }

// Add inserts a copy of each row of rel, which has the set's width, unless
// an equal row is present.
func (s *Set) Add(rel *Relation) {
	if rel.width != s.Rows.width {
		panic(fmt.Sprintf("exec: relation width %d != set width %d", rel.width, s.Rows.width))
	}
	_ = s.insert(rel, nil, nil, nil) // nil check: never stops
}

// insert offers every row of rel, projected onto the set's columns, a chunk
// at a time: position k takes rel's column src[k], or row[k] — a constant —
// where src[k] is -1; src nil takes rel's rows as they are. row, of the
// set's width, is scratch. check (nil: never stops) is polled once per
// chunk.
func (s *Set) insert(rel *Relation, src []int, row []dict.ID, check func() error) error {
	r := s.Rows
	if r.width == 0 {
		r.rows = min(r.rows+rel.rows, 1)
		return nil
	}
	for c := 0; c < rel.chunks(); c++ {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		ids, n := rel.chunk(c)
		if r.width == 1 {
			stride, col := rel.width, 0
			if src != nil {
				col = src[0]
			}
			if col == -1 { // a constant: one row, read off row
				ids, stride, col, n = row, 0, 0, min(n, 1)
			}
			if hi := columnMax(ids, n, stride, col); hi > s.hi {
				s.fit(hi)
			}
			if bits := s.bits; bits != nil {
				for j := 0; j < n; j++ {
					id := ids[j*stride+col]
					if bits[id>>6]&(1<<(id&63)) == 0 {
						bits[id>>6] |= 1 << (id & 63)
						r.extend()[0] = id
					}
				}
				continue
			}
			for j := 0; j < n; j++ {
				s.idx.insert(r, ids[j*stride+col:j*stride+col+1])
			}
			if bitmapWords(s.hi) <= r.rows/2 {
				if err := s.toBitmap(check); err != nil {
					return err
				}
			}
			continue
		}
		for j := 0; j < n; j++ {
			b := ids[j*rel.width : (j+1)*rel.width]
			if src != nil {
				for k, col := range src {
					if col != -1 {
						row[k] = b[col]
					}
				}
				b = row
			}
			s.idx.insert(r, b)
		}
	}
	return nil
}

// bitmapWords is the number of words of a bitmap that holds id.
func bitmapWords(id dict.ID) int { return int(id>>6) + 1 }

// columnMax returns the largest of n IDs, stride apart from col (0: none).
func columnMax(ids []dict.ID, n, stride, col int) dict.ID {
	hi := dict.ID(0)
	for j := 0; j < n; j++ {
		hi = max(hi, ids[j*stride+col])
	}
	return hi
}

// fit records hi, above every ID a one-column set was offered before, and
// makes the set's bitmap, if it has one, hold it: the bitmap doubles, up to
// 8 bytes a row, or gives way to the index when hi needs more.
func (s *Set) fit(hi dict.ID) {
	s.hi = hi
	need := bitmapWords(hi)
	if s.bits == nil || need <= len(s.bits) {
		return
	}
	if rows := s.Rows.rows; need <= rows {
		grown := make([]uint64, min(max(need, 2*len(s.bits)), rows))
		copy(grown, s.bits)
		s.bits = grown
		return
	}
	s.bits, s.idx = nil, rowTable{next: make([]int32, s.Rows.rows)}
	s.idx.rehash(s.Rows)
}

// toBitmap replaces a one-column set's index by its bitmap, polling check
// (nil: never stops) once per chunk of the rows it sets.
func (s *Set) toBitmap(check func() error) error {
	bits := make([]uint64, bitmapWords(s.hi))
	for c := 0; c < s.Rows.chunks(); c++ {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		ids, n := s.Rows.chunk(c)
		for _, id := range ids[:n] {
			bits[id>>6] |= 1 << (id & 63)
		}
	}
	s.bits, s.idx = bits, rowTable{}
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

// insert returns the index of the row of rows, which t chains over all
// columns, equal to row; if there is none, it appends a copy of row to rows,
// chains it and returns -1. When the rows outnumber the buckets it doubles
// them (rehash).
func (t *rowTable) insert(rows *Relation, row []dict.ID) int {
	h := hashRow(row)
	for k := t.chain(h); k != 0; k = t.next[k-1] {
		if slices.Equal(rows.Row(int(k-1)), row) {
			return int(k - 1)
		}
	}
	i := len(t.next)
	rows.Append(row)
	t.next = append(t.next, 0)
	if i < len(t.head) {
		t.add(h, i)
	} else {
		t.rehash(rows)
	}
	return -1
}

// rehash sizes the buckets for one row each on average and chains every
// row of rows (as many as next holds) again, over all columns.
func (t *rowTable) rehash(rows *Relation) {
	b := uint(bits.Len(uint(len(t.next))))
	t.head, t.shift = make([]int32, 1<<b), 64-b
	for i := range t.next {
		t.add(hashRow(rows.Row(i)), i)
	}
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
