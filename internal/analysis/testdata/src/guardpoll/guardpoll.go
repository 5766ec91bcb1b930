// Package exec is golden-test input for the guardpoll analyzer. Its
// package name matches the real executor package, so the analyzer treats
// every row-shaped loop here as guarded code; each want-marker comment
// asserts one diagnostic on its line.
package exec

import "context"

// CQ, Fragment and Triple mirror the query/dict types the analyzer keys
// row-shaped loops and callbacks on.
type CQ struct{ ID int }

type Fragment struct{ ID int }

type Triple struct{ S, P, O int }

// Relation mirrors the executor's row container.
type Relation struct {
	Vars []string
	rows int
}

func (r *Relation) Len() int         { return r.rows }
func (r *Relation) Append(row []int) { r.rows++ }

// chunks and chunk mirror the executor's chunked row storage.
func (r *Relation) chunks() int                { return 1 }
func (r *Relation) chunk(c int) ([]int, int)   { return nil, r.rows }
func (r *Relation) appendRows(ids []int) []int { return ids[1:] }
func (r *Relation) extend() []int              { r.rows++; return nil }

// DistinctCheck stands for a helper that takes the poll (Set.insert).
func (r *Relation) DistinctCheck(check func() error) error { return check() }

type guard struct{ n int }

func (g guard) err() error { return nil }

func each(fn func(Triple) bool) { fn(Triple{}) }

func eachRun(fn func([]Triple) bool) { fn(nil) }

func enumerate(fn func(CQ) bool) { fn(CQ{}) }

// --- rule 1: ranging over CQs / Fragments ----------------------------------

func rangeCQsUnpolled(cqs []CQ, g guard) {
	for range cqs { // want "ranges over CQs"
		_ = g
	}
}

func rangeCQsPolled(cqs []CQ, g guard) error {
	for range cqs {
		if err := g.err(); err != nil {
			return err
		}
	}
	return nil
}

func rangeFragmentsUnpolled(fs []Fragment) {
	for range fs { // want "ranges over fragments"
	}
}

// --- rule 2: Relation-length loops -----------------------------------------

func lenLoopUnpolled(r *Relation) {
	for i := 0; i < r.Len(); i++ { // want "does not poll"
		_ = i
	}
}

func lenLoopPolled(r *Relation, g guard) error {
	for i := 0; i < r.Len(); i++ {
		if err := g.err(); err != nil {
			return err
		}
	}
	return nil
}

func rowsFieldLoopUnpolled(r *Relation) {
	for i := 0; i < r.rows; i++ { // want "does not poll"
		_ = i
	}
}

// forwardedPoll passes g.err to a *Check helper instead of calling it —
// still a poll.
func forwardedPoll(r *Relation, g guard) error {
	for i := 0; i < r.Len(); i++ {
		if err := r.DistinctCheck(g.err); err != nil {
			return err
		}
	}
	return nil
}

// ctxErrOnly polls only ctx.Err, which misses the wall-clock deadline —
// not a guard poll.
func ctxErrOnly(ctx context.Context, r *Relation) {
	for i := 0; i < r.Len(); i++ { // want "does not poll"
		if ctx.Err() != nil {
			return
		}
	}
}

// --- rule 3: unbounded for {} -----------------------------------------------

func unboundedUnpolled() {
	for { // want "unbounded"
		break
	}
}

func unboundedPolled(g guard) {
	for {
		if g.err() != nil {
			return
		}
	}
}

// --- rule 4: len(slice) condition -------------------------------------------

func sliceLenUnpolled(cqs []CQ) {
	for i := 0; i < len(cqs); i++ { // want "bounded by a slice length"
		_ = i
	}
}

// --- rule 5: loops producing Relation rows ----------------------------------

func mapRangeAppends(m map[string][]int, out *Relation) {
	for _, row := range m { // want "appends Relation rows"
		out.Append(row)
	}
}

// --- direct-poll requirement -------------------------------------------------

// pollOnlyInNested polls in the inner loop; the outer loop has no direct
// poll, so deleting the outer obligation must still be caught.
func pollOnlyInNested(l, r *Relation, g guard) {
	for i := 0; i < l.Len(); i++ { // want "does not poll"
		for j := 0; j < r.Len(); j++ {
			if g.err() != nil {
				return
			}
		}
	}
}

func pollOnlyInFuncLit(r *Relation, g guard) {
	for i := 0; i < r.Len(); i++ { // want "does not poll"
		func() {
			_ = g.err()
		}()
	}
}

// --- callbacks ----------------------------------------------------------------

func tripleCallbackUnpolled() {
	each(func(t Triple) bool { // want "per-row"
		return true
	})
}

func tripleCallbackPolled(g guard) {
	each(func(t Triple) bool {
		return g.err() == nil
	})
}

func cqCallbackUnpolled() {
	enumerate(func(cq CQ) bool { // want "per-CQ"
		return true
	})
}

// --- batches: index blocks and Relation chunks ---------------------------------

// blockPolledOnce polls once per block; its loop over the block appends a row
// per triple without a poll of its own — the block bounds it.
func blockPolledOnce(out *Relation, g guard) {
	eachRun(func(run []Triple) bool {
		if g.err() != nil {
			return false
		}
		for _, t := range run {
			out.Append([]int{t.S})
		}
		for len(run) > 0 {
			run = run[1:]
		}
		return true
	})
}

func blockCallbackUnpolled(out *Relation) {
	eachRun(func(run []Triple) bool { // want "per-batch"
		for _, t := range run { // want "appends Relation rows"
			out.Append([]int{t.S})
		}
		return true
	})
}

// blockPolledOnlyPerRow polls inside its loop over the block but not once
// per block: the batch discipline wants the block's own poll.
func blockPolledOnlyPerRow(g guard) {
	eachRun(func(run []Triple) bool { // want "per-batch"
		for i := 0; i < len(run); i++ {
			if g.err() != nil {
				return false
			}
		}
		return true
	})
}

// fanOutUnpolled emits the matches of each probe triple: the fan-out loop
// is not a loop over the block, so the block's poll does not cover it.
func fanOutUnpolled(out *Relation, matches map[int][]int, g guard) {
	eachRun(func(run []Triple) bool {
		if g.err() != nil {
			return false
		}
		for _, t := range run {
			for _, m := range matches[t.S] { // want "appends Relation rows"
				out.Append([]int{t.S, m})
			}
		}
		return true
	})
}

// fanOutInPlace emits rows it fills in place, still without a poll.
func fanOutInPlace(out *Relation, matches map[int][]int, g guard) {
	eachRun(func(run []Triple) bool {
		if g.err() != nil {
			return false
		}
		for _, t := range run {
			for _, m := range matches[t.S] { // want "appends Relation rows"
				row := out.extend()
				_, _ = row, m
			}
		}
		return true
	})
}

// fanOutPolled polls the fan-out every checkEvery emitted rows.
func fanOutPolled(out *Relation, matches map[int][]int, g guard) {
	steps := 0
	eachRun(func(run []Triple) bool {
		if g.err() != nil {
			return false
		}
		for _, t := range run {
			for _, m := range matches[t.S] {
				if steps++; steps%4096 == 0 && g.err() != nil {
					return false
				}
				out.Append([]int{t.S, m})
			}
		}
		return true
	})
}

// notOverTheBlock sits in a polled block callback but loops over something
// else: it keeps its own obligation.
func notOverTheBlock(out *Relation, rows [][]int, g guard) {
	eachRun(func(run []Triple) bool {
		if g.err() != nil {
			return false
		}
		for i := 0; i < len(rows); i++ { // want "bounded by a slice length"
			out.Append(rows[i])
		}
		return true
	})
}

func chunksPolled(dst, src *Relation, g guard) error {
	for c := 0; c < src.chunks(); c++ {
		if err := g.err(); err != nil {
			return err
		}
		ids, _ := src.chunk(c)
		for len(ids) > 0 {
			ids = dst.appendRows(ids)
		}
	}
	return nil
}

func chunksUnpolled(dst, src *Relation) {
	for c := 0; c < src.chunks(); c++ { // want "visits Relation chunks"
		ids, _ := src.chunk(c)
		for len(ids) > 0 { // want "bounded by a slice length"
			ids = dst.appendRows(ids)
		}
	}
}

// --- annotations --------------------------------------------------------------

func annotatedLoop(r *Relation) {
	//reflint:noguard fixed arity, at most three iterations in this shim
	for i := 0; i < r.Len(); i++ {
		_ = i
	}
}

//reflint:noguard whole function is test bookkeeping, never on the answering path
func annotatedFunc(r *Relation) {
	for i := 0; i < r.Len(); i++ {
		_ = i
	}
}

func annotationWithoutReason(r *Relation) {
	//reflint:noguard // want "requires a reason"
	for i := 0; i < r.Len(); i++ { // want "does not poll"
		_ = i
	}
}

//reflint:nosuchcheck suppresses nothing // want "unknown reflint annotation"
func danglingAnnotation() {}
