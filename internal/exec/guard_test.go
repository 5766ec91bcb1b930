package exec

import (
	"context"
	"testing"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/storage"
)

// TestGuardFlushIdempotent: guards are copied by value through wrappers
// and sub-evaluations, and more than one copy can reach a deferred
// flush. Only the first flush may publish the tally; later flushes of
// the same tally must be no-ops, or row counters double-count.
func TestGuardFlushIdempotent(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}})
	e := New(st, ss)
	m := metrics.NewRegistry()
	e.Metrics = m

	g := e.newGuard(context.Background())
	g.addScanned(7)
	g.addJoined(3)
	g.addUnioned(2)

	g.flush(m)
	copyOfG := g // same tally pointer, as in a sub-evaluation
	copyOfG.flush(m)
	g.flush(m)

	if got := m.Counter("exec.rows_scanned").Value(); got != 7 {
		t.Fatalf("rows_scanned = %d after repeated flush, want 7", got)
	}
	if got := m.Counter("exec.rows_joined").Value(); got != 3 {
		t.Fatalf("rows_joined = %d after repeated flush, want 3", got)
	}
	if got := m.Counter("exec.rows_unioned").Value(); got != 2 {
		t.Fatalf("rows_unioned = %d after repeated flush, want 2", got)
	}
}

// TestGuardFlushDisabled: a guard built with metrics disabled has no
// tally and flushing it must not panic or register anything.
func TestGuardFlushDisabled(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}})
	e := New(st, ss)

	g := e.newGuard(context.Background())
	g.addScanned(5)
	g.flush(nil)
	g.flush(metrics.NewRegistry())
}

// Scanned rows mean one thing: triples read from an index, by a scan or by
// a probe. A two-atom plan that scans {x 10 y} (2 triples) and probes
// {y 11 z} per row (2 + 1 triples) reads 5 — whether the probed atom is
// plain or its property is widened to a one-ID range.
func TestProbedTriplesCountAsScanned(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{
		{1, 10, 2}, {3, 10, 4},
		{2, 11, 5}, {2, 11, 6}, {4, 11, 7}, {8, 11, 9},
	})
	head := []query.Arg{v("x"), v("z")}
	plain := query.CQ{Head: head, Atoms: []query.Atom{
		{S: v("x"), P: c(10), O: v("y")},
		{S: v("y"), P: c(11), O: v("z")},
	}}
	widened := plain.Lift()
	widened.Atoms[1].P = query.RangeArg{Ranges: []storage.IDRange{storage.Exact(11)}}
	for name, eval := range map[string]func(*Evaluator) (*Relation, error){
		"plain": func(e *Evaluator) (*Relation, error) { return e.cq([]string{"x", "z"}, plain) },
		"one-ID range": func(e *Evaluator) (*Relation, error) {
			u := query.RangeUCQ{HeadNames: []string{"x", "z"}, CQs: []query.RangeCQ{widened}}
			return e.EvalRangeUCQContext(context.Background(), u)
		},
	} {
		e := New(st, ss)
		e.Metrics = metrics.NewRegistry()
		r, err := eval(e)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 3 {
			t.Fatalf("%s: %d answers, want 3", name, r.Len())
		}
		if got := e.Metrics.Counter("exec.rows_scanned").Value(); got != 5 {
			t.Errorf("%s: rows_scanned = %d, want 5 (2 scanned + 3 probed)", name, got)
		}
		if got := e.Metrics.Counter("exec.rows_joined").Value(); got != 3 {
			t.Errorf("%s: rows_joined = %d, want 3", name, got)
		}
	}
}
