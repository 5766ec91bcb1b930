package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dict"
	"repro/internal/query"
)

// TestForceHashJoinsEquivalence: disabling index-nested-loop joins must
// never change answers, only plans — checked over random graphs and
// chain/star queries.
func TestForceHashJoinsEquivalence(t *testing.T) {
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
			st, ss := tinyStore(ts)

			queries := []query.CQ{
				{ // chain
					Head: []query.Arg{v("x"), v("z")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(100), O: v("y")},
						{S: v("y"), P: c(101), O: v("z")},
						{S: v("z"), P: c(102), O: v("w")},
					},
				},
				{ // star
					Head: []query.Arg{v("x")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(100), O: v("a")},
						{S: v("x"), P: c(101), O: v("b")},
						{S: v("x"), P: c(103), O: v("d")},
					},
				},
				{ // with constant
					Head: []query.Arg{v("x"), v("y")},
					Atoms: []query.Atom{
						{S: v("x"), P: c(100), O: c(dict.ID(1 + r.Intn(15)))},
						{S: v("x"), P: c(101), O: v("y")},
					},
				},
			}
			for qi, q := range queries {
				def := New(st, ss)
				want, err := def.cq(query.HeadVarNames(q), q)
				if err != nil {
					t.Fatal(err)
				}
				forced := New(st, ss)
				forced.ForceHashJoins = true
				got, err := forced.cq(query.HeadVarNames(q), q)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("query %d: hash-only %d rows != default %d rows", qi, got.Len(), want.Len())
				}
			}
		})
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

// TestMergeJoinEquivalence: merge joins must produce exactly the hash
// joins' answers over random graphs and query shapes.
func TestMergeJoinEquivalence(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var ts [][3]dict.ID
			for i := 0; i < 20+r.Intn(150); i++ {
				ts = append(ts, [3]dict.ID{
					dict.ID(1 + r.Intn(12)), dict.ID(100 + r.Intn(3)), dict.ID(1 + r.Intn(12)),
				})
			}
			st, ss := tinyStore(ts)
			q := query.CQ{
				Head: []query.Arg{v("x"), v("z")},
				Atoms: []query.Atom{
					{S: v("x"), P: c(100), O: v("y")},
					{S: v("y"), P: c(101), O: v("z")},
					{S: v("x"), P: c(102), O: v("w")},
				},
			}
			hash := New(st, ss)
			hash.ForceHashJoins = true
			want, err := hash.cq(query.HeadVarNames(q), q)
			if err != nil {
				t.Fatal(err)
			}
			merge := New(st, ss)
			merge.ForceHashJoins = true
			merge.Join = JoinMerge
			got, err := merge.cq(query.HeadVarNames(q), q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("merge join %d rows != hash join %d rows", got.Len(), want.Len())
			}
		})
	}
}

// Merge join on a cross product must fall back to the hash path.
func TestMergeJoinCrossProductFallback(t *testing.T) {
	st, ss := tinyStore([][3]dict.ID{{1, 10, 2}, {3, 11, 4}, {5, 11, 6}})
	e := New(st, ss)
	e.ForceHashJoins = true
	e.Join = JoinMerge
	q := query.CQ{
		Head: []query.Arg{v("x"), v("u")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")},
			{S: v("u"), P: c(11), O: v("w")},
		},
	}
	res, ops := evalTraced(t, e, []string{"x", "u"}, q)
	if res.Len() != 2 {
		t.Fatalf("cross product rows %d, want 2", res.Len())
	}
	if ops.Find("merge") != nil || ops.Find("cross") == nil {
		t.Fatal("cross products must go through the hash path, not merge join")
	}
}

// Merge join respects the row budget.
func TestMergeJoinBudget(t *testing.T) {
	var ts [][3]dict.ID
	for i := dict.ID(1); i <= 40; i++ {
		ts = append(ts, [3]dict.ID{1, 10, 100 + i}, [3]dict.ID{1, 11, 200 + i})
	}
	st, ss := tinyStore(ts)
	e := New(st, ss)
	e.ForceHashJoins = true
	e.Join = JoinMerge
	e.Budget = Budget{MaxRows: 100}
	q := query.CQ{
		Head: []query.Arg{v("x")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("a")},
			{S: v("x"), P: c(11), O: v("b")},
		},
	}
	// 40×40 = 1600 joined rows on the single shared x > budget 100.
	if _, err := e.cq([]string{"x"}, q); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
}
