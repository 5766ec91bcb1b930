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

// DistinctCheck stands for a helper that takes the poll (Set.insertAll).
func (r *Relation) DistinctCheck(check func() error) error { return check() }

type guard struct{ n int }

func (g guard) err() error { return nil }

func each(fn func(Triple) bool) { fn(Triple{}) }

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
