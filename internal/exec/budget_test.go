package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/query"
)

// crossStore builds a store where predicates 10 and 11 each have n
// subjects, so the body {x 10 y, z 11 w} is an n×n cross product —
// expensive to evaluate, cheap to build.
func crossStore(n int) [][3]dict.ID {
	ts := make([][3]dict.ID, 0, 2*n)
	for i := 0; i < n; i++ {
		ts = append(ts,
			[3]dict.ID{dict.ID(100 + i), 10, dict.ID(100000 + i)},
			[3]dict.ID{dict.ID(200000 + i), 11, dict.ID(300000 + i)},
		)
	}
	return ts
}

func crossCQ() query.CQ {
	return query.CQ{
		Head: []query.Arg{v("x"), v("z")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")},
			{S: v("z"), P: c(11), O: v("w")},
		},
	}
}

// hubStore holds, for each of four hub subjects, n triples hub 13 100+i and
// n triples hub 12 200000+j: starCQ joins them on the hub into the n×n pairs
// (100+i, 200000+j) — crossCQ's answers over crossStore(n) — once per hub.
// Every hub is its own subject, so over four shards each shard holds one.
func hubStore(n int) [][3]dict.ID {
	ts := make([][3]dict.ID, 0, 8*n)
	for hub := dict.ID(1); hub <= 4; hub++ {
		for i := 0; i < n; i++ {
			ts = append(ts,
				[3]dict.ID{hub, 13, dict.ID(100 + i)},
				[3]dict.ID{hub, 12, dict.ID(200000 + i)},
			)
		}
	}
	return ts
}

// starCQ is co-partitioned: both atoms share the subject variable h, so over
// shards a union runs it in the scatter, each hub's n×n join on its shard.
func starCQ() query.CQ {
	return query.CQ{
		Head: []query.Arg{v("x"), v("z")},
		Atoms: []query.Atom{
			{S: v("h"), P: c(13), O: v("x")},
			{S: v("h"), P: c(12), O: v("z")},
		},
	}
}

// fanOutStore holds n triples x 201 k and m triples z 202 k, all with the
// same k: fanOutCQ scans the n, then streams the m into a hash join in which
// each of them matches all n rows.
func fanOutStore(n, m int) [][3]dict.ID {
	ts := make([][3]dict.ID, 0, n+m)
	for i := 0; i < n; i++ {
		ts = append(ts, [3]dict.ID{dict.ID(1000 + i), 201, 1})
	}
	for i := 0; i < m; i++ {
		ts = append(ts, [3]dict.ID{dict.ID(100000 + i), 202, 1})
	}
	return ts
}

func fanOutCQ() query.CQ {
	return query.CQ{
		Head: []query.Arg{v("x"), v("z")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(201), O: v("k")},
			{S: v("z"), P: c(202), O: v("k")},
		},
	}
}

// Regression for the headline bug: parallel UCQ workers used to restart
// Budget.Timeout per CQ (fresh sub-Evaluator → EvalCQ → fresh deadline),
// so a union of N CQs effectively got N budgets. The deadline must be set
// once for the whole union and shared by every worker — a scatter's shard
// workers now, the executor's one fan-out, which runs the union's
// co-partitioned members.
func TestParallelUCQSharedTimeout(t *testing.T) {
	st, ss := tinyStore(append(crossStore(400), hubStore(400)...))
	u := query.UCQ{HeadNames: []string{"x", "z"}}
	for i := 0; i < 8; i++ {
		u.CQs = append(u.CQs, starCQ(), crossCQ())
	}

	// Unbudgeted serial baseline: how long the real work takes.
	base := New(st, ss)
	start := time.Now()
	if _, err := base.ucq(u); err != nil {
		t.Fatalf("unbudgeted baseline failed: %v", err)
	}
	baseline := time.Since(start)

	e := New(newSplitStore(st, 4), ss)
	e.Budget.Timeout = time.Millisecond
	start = time.Now()
	_, err := e.ucq(u)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// With a shared deadline the whole union aborts almost immediately;
	// with per-CQ restarts it would run each CQ to completion. Allow a
	// wide margin for scheduling noise and the race detector.
	if elapsed > baseline/2+100*time.Millisecond {
		t.Fatalf("budgeted eval took %v (baseline %v): deadline looks restarted per CQ", elapsed, baseline)
	}
}

// The serial UCQ loop shares the same guard — one budget for the union.
func TestSerialUCQSharedTimeout(t *testing.T) {
	st, ss := tinyStore(crossStore(800))
	u := query.UCQ{HeadNames: []string{"x", "z"}, CQs: []query.CQ{crossCQ(), crossCQ()}}
	e := New(st, ss)
	e.Budget.Timeout = time.Millisecond
	start := time.Now()
	_, err := e.ucq(u)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budgeted serial UCQ took %v", elapsed)
	}
}

// Regression for the same defect in EvalJUCQ: each fragment's UCQ used to
// be evaluated with a fresh deadline (serial and parallel paths alike), so
// a 2-fragment JUCQ with timeout T could run for ~2T. It must fail in ≈T,
// over one store and over shards. The head reads w, so each fragment is a
// real 800×800 cross product (with w unread, z 11 w is a boolean test).
func TestJUCQSharedTimeout(t *testing.T) {
	st, ss := tinyStore(crossStore(800))
	frag := func() query.Fragment {
		return query.Fragment{UCQ: query.UCQ{HeadNames: []string{"x", "w"}, CQs: []query.CQ{{
			Head: []query.Arg{v("x"), v("w")},
			Atoms: []query.Atom{
				{S: v("x"), P: c(10), O: v("y")},
				{S: v("z"), P: c(11), O: v("w")},
			},
		}}}}
	}
	j := query.JUCQ{HeadNames: []string{"x", "w"}, Fragments: []query.Fragment{frag(), frag()}}

	base := New(st, ss)
	start := time.Now()
	if _, err := base.jucq(j); err != nil {
		t.Fatalf("unbudgeted baseline failed: %v", err)
	}
	baseline := time.Since(start)

	for _, src := range []Source{st, newSplitStore(st, 4)} {
		e := New(src, ss)
		e.Budget.Timeout = time.Millisecond
		start = time.Now()
		_, err := e.jucq(j)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%T: want ErrBudgetExceeded, got %v", src, err)
		}
		if elapsed > baseline/2+100*time.Millisecond {
			t.Fatalf("%T: budgeted JUCQ took %v (baseline %v): deadline looks restarted per fragment", src, elapsed, baseline)
		}
	}
}

// A canceled context aborts evaluation before any work happens.
func TestEvalCQContextPreCanceled(t *testing.T) {
	st, ss := tinyStore(crossStore(10))
	e := New(st, ss)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvalCQContext(ctx, []string{"x", "z"}, crossCQ()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// Canceling mid-flight stops a long evaluation at the next operator
// checkpoint instead of running the scan to completion — a cross product,
// and a scan streamed into a hash join whose every triple matches every row
// of the running result, so that one block emits millions of rows.
func TestCancelMidEval(t *testing.T) {
	for _, tc := range []struct {
		name    string
		triples [][3]dict.ID
		q       query.CQ
	}{{"cross", crossStore(800), crossCQ()}, {"streamed fan-out", fanOutStore(2000, 2100), fanOutCQ()}} {
		st, ss := tinyStore(tc.triples)

		base := New(st, ss)
		start := time.Now()
		if _, err := base.cq([]string{"x", "z"}, tc.q); err != nil {
			t.Fatalf("%s: unbudgeted baseline failed: %v", tc.name, err)
		}
		baseline := time.Since(start)

		e := New(st, ss)
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Millisecond, cancel)
		start = time.Now()
		_, err := e.EvalCQContext(ctx, []string{"x", "z"}, tc.q)
		elapsed := time.Since(start)
		timer.Stop()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: want ErrCanceled, got %v", tc.name, err)
		}
		if elapsed > baseline/2+100*time.Millisecond {
			t.Fatalf("%s: canceled eval took %v (baseline %v): cancellation not checked mid-operator", tc.name, elapsed, baseline)
		}
	}
}

// A context deadline is a budget signal, not an abandonment: it maps to
// ErrBudgetExceeded so callers see one error for "out of time".
func TestContextDeadlineMapsToBudgetError(t *testing.T) {
	st, ss := tinyStore(crossStore(10))
	e := New(st, ss)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.EvalCQContext(ctx, []string{"x", "z"}, crossCQ()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// Parallel UCQ and JUCQ evaluation with budgets must be race-free: a
// scatter's shard workers, running the co-partitioned members, share one
// guard (ctx + absolute deadline + atomic tally). Run under -race.
func TestParallelBudgetedEvalRace(t *testing.T) {
	st, ss := tinyStore(append(crossStore(64), hubStore(64)...))
	u := query.UCQ{HeadNames: []string{"x", "z"}}
	for i := 0; i < 12; i++ {
		u.CQs = append(u.CQs, starCQ(), crossCQ())
	}
	for i := 0; i < 4; i++ {
		e := New(newSplitStore(st, 4), ss)
		e.Metrics = metrics.NewRegistry()
		e.Budget.Timeout = 30 * time.Second
		r, err := e.ucq(u)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 64*64 {
			t.Fatalf("want %d rows, got %d", 64*64, r.Len())
		}
		if e.Metrics.Counter("shard.local_cqs").Value() == 0 {
			t.Fatal("no member ran in the scatter")
		}
	}
	frag := query.Fragment{UCQ: query.UCQ{HeadNames: []string{"x", "z"}, CQs: []query.CQ{starCQ(), crossCQ()}}}
	j := query.JUCQ{HeadNames: []string{"x", "z"}, Fragments: []query.Fragment{frag, frag}}
	for i := 0; i < 4; i++ {
		e := New(newSplitStore(st, 4), ss)
		e.Metrics = metrics.NewRegistry()
		e.Budget.Timeout = 30 * time.Second
		if _, err := e.jucq(j); err != nil {
			t.Fatal(err)
		}
	}
}
