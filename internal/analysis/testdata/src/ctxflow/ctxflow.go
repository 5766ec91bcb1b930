// Package ctxflow is golden-test input for the ctxflow analyzer:
// Answer*/Eval* entry points with and without contexts, context-less
// wrappers, and stray context.Background calls.
package ctxflow

import "context"

type Engine struct{}

func (e *Engine) AnswerContext(ctx context.Context, q string) error {
	_, _ = ctx, q
	return nil
}

// Answer is a context-less wrapper: no longer an accepted shape, the
// entry point and its Background call are both flagged.
func (e *Engine) Answer(q string) error { // want "takes no context.Context"
	return e.AnswerContext(context.Background(), q) // want "detaches"
}

func (e *Engine) AnswerRaw(q string) error { // want "takes no context.Context"
	_ = q
	return nil
}

func EvalThing(x int) int { // want "takes no context.Context"
	return x
}

func EvalWith(ctx context.Context, x int) int {
	_ = ctx
	return x
}

// EvalMiddle accepts a context anywhere in the signature (only *Context
// names demand it first).
func EvalMiddle(x int, ctx context.Context) int {
	_ = ctx
	return x
}

func AnswerAllContext(x int, ctx context.Context) { // want "first parameter"
	_, _ = x, ctx
}

func EvalBatchContext(ctx context.Context, xs []int) int {
	_ = ctx
	return len(xs)
}

// answerLocal is unexported: no entry-point obligation (but Background
// outside a wrapper is still flagged).
func answerLocal(q string) {
	_ = q
}

func backgroundHelper() {
	ctx := context.Background() // want "detaches"
	_ = ctx
}

func todoHelper() {
	ctx := context.TODO() // want "detaches"
	_ = ctx
}

func annotatedBackground() {
	//reflint:ctxbg daemon-lifetime context, shutdown is wired separately
	ctx := context.Background()
	_ = ctx
}

type Store struct{}

func (s *Store) BuildContext(ctx context.Context) error {
	_ = ctx
	return nil
}

// Build delegates to BuildContext: not an entry-point name, but its
// Background call is flagged like any other.
func (s *Store) Build() error {
	return s.BuildContext(context.Background()) // want "detaches"
}
