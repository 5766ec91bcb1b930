package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestForceHashJoinsEquivalence: disabling index-nested-loop joins must
// never change answers, only plans — checked over random graphs and query
// shapes that cover every way the one probe binds an atom: chain, star and
// constant bodies; a probed atom with a repeated free variable (y p y); a
// semijoin (the probe binds no live variable); a variable property bound by
// the running result; and a ranged atom probed with bindings both inside and
// outside its ranges. Every shape must take an index join on some graph, and
// a semijoin's must emit at most one row per probe row.
func TestForceHashJoinsEquivalence(t *testing.T) {
	in := func(v string, rs ...storage.IDRange) query.RangeArg {
		return query.RangeArg{Arg: query.Variable(v), Ranges: rs}
	}
	probed := map[string]bool{}
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var ts [][3]dict.ID
			n := 20 + r.Intn(200)
			for i := 0; i < n; i++ {
				ts = append(ts, [3]dict.ID{
					dict.ID(1 + r.Intn(15)), dict.ID(100 + r.Intn(4)), dict.ID(1 + r.Intn(15)),
				})
			}
			// Property 104 maps subjects to the other properties, for the
			// shapes whose property is a variable.
			for i := 0; i < 3+n/8; i++ {
				ts = append(ts, [3]dict.ID{dict.ID(1 + r.Intn(15)), 104, dict.ID(100 + r.Intn(4))})
			}
			st, ss := tinyStore(ts)

			shapes := []struct {
				name string
				semi bool
				q    query.RangeCQ
			}{
				{name: "chain", q: query.CQ{
					Head: []query.Arg{v("x"), v("z")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(100), O: v("y")},
						{S: v("y"), P: c(101), O: v("z")},
						{S: v("z"), P: c(102), O: v("w")},
					},
				}.Lift()},
				{name: "star", q: query.CQ{
					Head: []query.Arg{v("x")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(100), O: v("a")},
						{S: v("x"), P: c(101), O: v("b")},
						{S: v("x"), P: c(103), O: v("d")},
					},
				}.Lift()},
				{name: "constant", q: query.CQ{
					Head: []query.Arg{v("x"), v("y")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(100), O: c(dict.ID(1 + r.Intn(15)))},
						{S: v("x"), P: c(101), O: v("y")},
					},
				}.Lift()},
				{name: "repeated free variable", q: query.CQ{
					Head: []query.Arg{v("x"), v("y")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(104), O: v("p")},
						{S: v("y"), P: v("p"), O: v("y")},
					},
				}.Lift()},
				{name: "semijoin", semi: true, q: query.CQ{
					Head: []query.Arg{v("x")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(100), O: c(dict.ID(1 + r.Intn(15)))},
						{S: v("x"), P: c(101), O: v("z")},
					},
				}.Lift()},
				{name: "variable property", q: query.CQ{
					Head: []query.Arg{v("x"), v("y"), v("z")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(104), O: v("p")},
						{S: v("y"), P: v("p"), O: v("z")},
					},
				}.Lift()},
				{name: "ranged probe", q: query.RangeCQ{
					Head: []query.Arg{v("x"), v("z")},
					Atoms: []query.RangeAtom{
						{S: query.PlainArg(v("x")), P: query.PlainArg(c(100)), O: query.PlainArg(v("y"))},
						{S: in("y", storage.IDRange{Lo: 1, Hi: 5}, storage.IDRange{Lo: 9, Hi: 11}), P: query.PlainArg(v("p")), O: query.PlainArg(v("z"))},
					},
				}},
			}
			for _, sh := range shapes {
				u := query.RangeUCQ{HeadNames: query.HeadVarNames(query.CQ{Head: sh.q.Head}), CQs: []query.RangeCQ{sh.q}}
				def := New(st, ss)
				root := trace.New(0).StartSpan("eval")
				def.Span = root
				want, err := def.EvalRangeUCQContext(context.Background(), u)
				if err != nil {
					t.Fatal(err)
				}
				root.End()
				forced := New(st, ss)
				forced.ForceHashJoins = true
				got, err := forced.EvalRangeUCQContext(context.Background(), u)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: hash-only %d rows != default %d rows", sh.name, got.Len(), want.Len())
				}
				took := false
				eachSpan(trace.ToJSON(root), "inlj", func(s *trace.SpanJSON) {
					took = true
					if rows, left := s.Attrs["rows"].(int64), s.Attrs["left_rows"].(int64); sh.semi && rows > left {
						t.Fatalf("%s: a semijoin probe of %d rows emits %d", sh.name, left, rows)
					}
				})
				probed[sh.name] = probed[sh.name] || took
			}
		})
	}
	for name, took := range probed {
		if !took {
			t.Errorf("%s: no graph took an index join", name)
		}
	}
}

// eachSpan calls fn with every span named name in the tree under s.
func eachSpan(s *trace.SpanJSON, name string, fn func(*trace.SpanJSON)) {
	if s == nil {
		return
	}
	if s.Name == name {
		fn(s)
	}
	for _, c := range s.Children {
		eachSpan(c, name, fn)
	}
}

// TestForceHashJoinsNoINLJInTrace confirms the knob actually changes plans.
func TestForceHashJoinsNoINLJInTrace(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {2, 11, 3}, {4, 10, 5}})
	e := New(st, ss)
	e.ForceHashJoins = true
	q := query.CQ{
		Head: []query.Arg{v("x")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")},
			{S: v("y"), P: c(11), O: v("z")},
		},
	}
	_, ops := evalTraced(t, e, []string{"x"}, q)
	if ops.Find("inlj") != nil {
		t.Fatal("ForceHashJoins must prevent index joins")
	}
	if ops.Find("hashjoin") == nil {
		t.Fatal("expected a hash join in the trace")
	}
}
