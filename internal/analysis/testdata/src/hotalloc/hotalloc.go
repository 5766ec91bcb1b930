// Package exec is golden-test input for the hotalloc analyzer. The
// package name matches the real executor, so every row-shaped loop and
// per-row callback below is a hot path; each want marker asserts one
// per-iteration allocation diagnostic.
package exec

import (
	"fmt"
	"strconv"
	"strings"
)

type Triple struct{ S, P, O int }

type CQ struct{ ID int }

type Relation struct{ rows int }

func (r *Relation) Len() int { return r.rows }

func (r *Relation) chunks() int { return 1 }

type guard struct{ n int }

func (g guard) err() error { return nil }

func each(fn func(Triple) bool) { fn(Triple{}) }

func eachRun(fn func([]Triple) bool) { fn(nil) }

func sink(v any) {}

var global []string

// --- fmt calls ---------------------------------------------------------------

func fmtPerRow(r *Relation, g guard) {
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		global = append(global, fmt.Sprintf("%d", i)) // want "fmt.Sprintf per iteration in row loop"
	}
}

// errorfExempt: constructing the error that exits the loop is not
// per-row work.
func errorfExempt(r *Relation, g guard) error {
	for i := 0; i < r.Len(); i++ {
		if err := g.err(); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// --- allocations -------------------------------------------------------------

func makePerRow(r *Relation, g guard) {
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		buf := make([]byte, 0, 16) // want "make.. per iteration in row loop"
		_ = buf
	}
}

func literalsPerRow(r *Relation, g guard) {
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		m := map[int]int{} // want "map literal allocated per iteration"
		_ = m
		s := []int{i} // want "slice literal allocated per iteration"
		_ = s
	}
}

func builderPerRow(r *Relation, g guard) {
	var b strings.Builder
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		b.WriteByte(',') // want "strings.Builder.WriteByte per iteration"
	}
	global = append(global, b.String())
}

// --- interface boxing --------------------------------------------------------

func boxingPerRow(r *Relation, g guard) {
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		sink(i) // want "argument boxes a concrete int into an interface parameter"
	}
}

// hoistedClean reuses one buffer across rows and passes an already-boxed
// interface value: nothing allocates per iteration.
func hoistedClean(r *Relation, g guard) {
	key := make([]byte, 0, 64)
	var v any = 1
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		key = strconv.AppendInt(key[:0], int64(i), 10)
		sink(v)
	}
	_ = key
}

// --- scope -------------------------------------------------------------------

// nestedOwnScope: the inner loop is not row-shaped, so its make is not
// this analyzer's business (and the outer body check stops at the loop).
func nestedOwnScope(r *Relation, g guard) {
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		for j := 0; j < 3; j++ {
			scratch := make([]byte, 4)
			_ = scratch
		}
	}
}

// --- callbacks ---------------------------------------------------------------

func callbackPerRow(g guard) {
	each(func(t Triple) bool {
		if g.err() != nil {
			return false
		}
		global = append(global, fmt.Sprint(t.S)) // want "fmt.Sprint per iteration in per-row"
		return true
	})
}

// --- suppression -------------------------------------------------------------

func annotated(r *Relation, g guard) {
	for i := 0; i < r.Len(); i++ {
		if g.err() != nil {
			return
		}
		//reflint:hotalloc rotation branch, taken once per file rollover, not per row
		idx := make(map[int]int)
		_ = idx
	}
}

// --- batches -------------------------------------------------------------------

// A block callback is as hot as a per-row one: it runs once per block of a
// scan that may read millions of triples.
func blockCallbackAllocates(g guard) {
	eachRun(func(run []Triple) bool {
		if g.err() != nil {
			return false
		}
		buf := make([]int, len(run)) // want "make.. per iteration in per-batch"
		_ = buf
		return true
	})
}

func chunkLoopAllocates(r *Relation, g guard) {
	for c := 0; c < r.chunks(); c++ {
		if g.err() != nil {
			return
		}
		global = append(global, fmt.Sprint(c)) // want "fmt.Sprint per iteration in row loop .visits Relation chunks."
	}
}
