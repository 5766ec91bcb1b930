// Package exec implements the relational executor the reformulated queries
// run on: materialized relations over dictionary IDs, index scans, hash
// joins, unions with set semantics, and projections. It corresponds to the
// RDBMS evaluation layer of the paper's experiments, and exposes the
// per-(sub)query cardinalities the demo's step 3 inspects.
package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/dict"
)

// Relation is a materialized table of dictionary IDs: column names plus
// row-major data. Stride == len(Vars); a relation with no columns (boolean
// query) tracks its row count explicitly.
type Relation struct {
	Vars  []string
	data  []dict.ID
	rows  int
	width int
}

// NewRelation returns an empty relation with the given columns.
func NewRelation(vars []string) *Relation {
	return &Relation{Vars: vars, width: len(vars)}
}

// Width returns the number of columns.
func (r *Relation) Width() int { return r.width }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.rows }

// Row returns the i-th row as a slice view; callers must not mutate it.
func (r *Relation) Row(i int) []dict.ID {
	return r.data[i*r.width : (i+1)*r.width]
}

// Append adds one row (copied); a zero-width row only counts.
func (r *Relation) Append(row []dict.ID) {
	if len(row) != r.width {
		panic(fmt.Sprintf("exec: row width %d != relation width %d", len(row), r.width))
	}
	r.data = append(r.data, row...)
	r.rows++
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

// Distinct removes duplicate rows in place, preserving first occurrences.
func (r *Relation) Distinct() { _ = r.DistinctCheck(nil) }

// DistinctCheck is Distinct with an early-stop check polled every
// checkEvery rows (nil check never stops) — deduplication over a large
// relation is an operator like any other and must honor cancellation.
// On a non-nil error the relation is left partially rewritten; callers
// abandon it.
func (r *Relation) DistinctCheck(check func() error) error {
	if r.width == 0 {
		if r.rows > 1 {
			r.rows = 1
		}
		return nil
	}
	if r.rows < 2 {
		return nil
	}
	cols := make([]int, r.width)
	for c := range cols {
		cols[c] = c
	}
	seen := newRowTable(r.rows)
	out := r.data[:0]
	kept := 0
	for i := 0; i < r.rows; i++ {
		if check != nil && i&(checkEvery-1) == checkEvery-1 {
			if err := check(); err != nil {
				return err
			}
		}
		row := r.Row(i)
		h := hashCols(row, cols)
		dup := false
		for k := seen.chain(h); k != 0 && !dup; k = seen.next[k-1] {
			dup = slices.Equal(out[int(k-1)*r.width:int(k)*r.width], row)
		}
		if dup {
			continue
		}
		out = append(out, row...)
		seen.add(h, kept)
		kept++
	}
	r.data = out
	r.rows = kept
	return nil
}

// ProjectCheck returns a new relation with the given output columns; each
// output column is either an existing column (sources, by output position)
// or a constant (consts, keyed by output position). outNames gives the
// result's column names. check is an early-stop check polled every
// checkEvery rows (nil never stops).
func (r *Relation) ProjectCheck(outNames []string, sources []int, consts map[int]dict.ID, check func() error) (*Relation, error) {
	out := NewRelation(outNames)
	row := make([]dict.ID, len(outNames))
	for i := 0; i < r.rows; i++ {
		if check != nil && i&(checkEvery-1) == checkEvery-1 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		src := r.Row(i)
		for j := range outNames {
			if c, ok := consts[j]; ok {
				row[j] = c
			} else {
				row[j] = src[sources[j]]
			}
		}
		out.Append(row)
	}
	return out, nil
}

// Snapshot returns an immutable deep copy: its backing array is exactly
// sized (cap == len), so appending to any view of it must reallocate and
// can never scribble over the copy. The view cache stores snapshots.
func (r *Relation) Snapshot() *Relation {
	data := make([]dict.ID, len(r.data))
	copy(data, r.data)
	return &Relation{
		Vars:  append([]string(nil), r.Vars...),
		data:  data,
		rows:  r.rows,
		width: r.width,
	}
}

// RenamedView returns a read-only alias of r with its columns renamed
// positionally to vars (len(vars) must equal the width). The view shares
// r's row storage but is capacity-clipped: appending to the view
// reallocates instead of mutating r. Cache hits hand these out so one
// cached fragment result can serve queries that spell the head variables
// differently.
func (r *Relation) RenamedView(vars []string) (*Relation, error) {
	if len(vars) != r.width {
		return nil, fmt.Errorf("exec: rename to %d columns, relation has %d", len(vars), r.width)
	}
	return &Relation{
		Vars:  append([]string(nil), vars...),
		data:  r.data[:len(r.data):len(r.data)],
		rows:  r.rows,
		width: r.width,
	}, nil
}

// SizeBytes estimates the relation's resident size: row storage plus
// column-name headers plus the struct itself. The view cache charges
// entries against its byte budget with this.
func (r *Relation) SizeBytes() int64 {
	n := int64(len(r.data)) * 4 // dict.ID is 4 bytes
	for _, v := range r.Vars {
		n += int64(len(v)) + 16 // string header
	}
	return n + 64 // struct + slice headers
}

// SortRows orders rows lexicographically, for deterministic output. Rows
// already in order — a single index scan's, say — cost one comparison each;
// otherwise the rows are copied in order, so a relation sharing its rows (a
// view cache hit's) is never reordered under its other readers.
func (r *Relation) SortRows() {
	if r.width == 0 {
		return
	}
	sorted := true
	//reflint:noguard one comparison per row of a finished answer, like the sort it spares
	for i := 1; i < r.rows && sorted; i++ {
		sorted = slices.Compare(r.Row(i-1), r.Row(i)) <= 0
	}
	if sorted {
		return
	}
	idx := make([]int32, r.rows)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return slices.Compare(r.Row(int(a)), r.Row(int(b))) })
	data := make([]dict.ID, 0, len(r.data))
	for _, i := range idx {
		data = append(data, r.Row(int(i))...)
	}
	r.data = data
}

// Equal reports whether two relations hold the same row *sets* over the
// same columns (order-insensitive); used by tests comparing strategies.
func (r *Relation) Equal(o *Relation) bool {
	if r.width != o.width || !slices.Equal(r.Vars, o.Vars) {
		return false
	}
	if r.width == 0 {
		return (r.rows > 0) == (o.rows > 0)
	}
	a, b := r.Snapshot(), o.Snapshot()
	a.Distinct()
	b.Distinct()
	a.SortRows()
	b.SortRows()
	return slices.Equal(a.data, b.data)
}

// String renders the relation (sorted) for debugging, decoding IDs with d
// when non-nil.
func (r *Relation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s) %d rows", strings.Join(r.Vars, ", "), r.rows)
	return sb.String()
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

// rowKey encodes a row into dst as a byte key.
func rowKey(dst []byte, row []dict.ID) []byte {
	for _, id := range row {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(id))
		dst = append(dst, buf[:]...)
	}
	return dst
}
