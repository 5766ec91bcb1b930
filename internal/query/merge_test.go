package query_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
)

// mergeFixture is a graph and the queries whose reformulations are merged.
type mergeFixture struct {
	name    string
	g       *graph.Graph
	queries []query.CQ
}

func mergeFixtures(t *testing.T) []mergeFixture {
	t.Helper()
	mini, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := lubm.ParseQueries(mini.Dict(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lubmFx := mergeFixture{name: "lubm", g: mini}
	for _, p := range parsed {
		lubmFx.queries = append(lubmFx.queries, p.CQ)
	}
	univ := lubm.PickExampleOneUniversity(mini)
	if univ == "" {
		univ = "http://www.University0.edu"
	}
	ex1, err := lubm.ExampleOne(mini.Dict(), univ)
	if err != nil {
		t.Fatal(err)
	}
	lubmFx.queries = append(lubmFx.queries, ex1)

	text, err := os.ReadFile("testdata/hostile.ttl")
	if err != nil {
		t.Fatal(err)
	}
	hostile, err := graph.ParseString(string(text))
	if err != nil {
		t.Fatal(err)
	}
	hostileFx := mergeFixture{name: "hostile", g: hostile}
	for _, q := range []string{
		`q(x) :- x rdf:type ex:C, ex:e0 ex:p2 x`,
		`q(x, y) :- x rdf:type ex:B, x ex:p3 y, y ex:likes ex:e1`,
		`q(x) :- x ex:p2 ex:e0, x ex:p3 ex:e2`,
		`q(x, c) :- x rdf:type c, x ex:likes ex:e1`,
		`q(p, o) :- ex:A p o`,
		`q(c) :- ex:e0 rdf:type c`,
		`q(x, p) :- x p ex:D`,
		`q(x) :- x rdf:type ex:D, x ex:p1 y, y rdf:type ex:A`,
	} {
		cq, err := query.ParseRuleWithPrefixes(hostile.Dict(), map[string]string{"ex": "http://example.org/"}, q)
		if err != nil {
			t.Fatal(err)
		}
		hostileFx.queries = append(hostileFx.queries, cq)
	}
	return []mergeFixture{lubmFx, hostileFx}
}

// expand lists the plain CQs a union in the atom form stands for: each
// member with every range position replaced, in turn, by each of its IDs.
func expand(cqs []query.RangeCQ) []query.CQ {
	var out []query.CQ
	var rec func(cq query.RangeCQ, atoms []query.Atom)
	rec = func(cq query.RangeCQ, atoms []query.Atom) {
		if len(atoms) == len(cq.Atoms) {
			out = append(out, query.CQ{Head: cq.Head, Atoms: atoms})
			return
		}
		a := cq.Atoms[len(atoms)]
		var choices [3][]query.Arg
		for p, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
			choices[p] = []query.Arg{ra.Arg}
			if ra.Ranges != nil {
				choices[p] = nil
				for _, r := range ra.Ranges {
					for id := r.Lo; id <= r.Hi; id++ {
						choices[p] = append(choices[p], query.Constant(id))
					}
				}
			}
		}
		for _, s := range choices[0] {
			for _, p := range choices[1] {
				for _, o := range choices[2] {
					rec(cq, append(slices.Clip(atoms), query.Atom{S: s, P: p, O: o}))
				}
			}
		}
	}
	for _, cq := range cqs {
		rec(cq, nil)
	}
	return out
}

// isCoreOf reports whether c is the core of m: m with some atoms dropped, as
// general as m with the head fixed, and with no atom to drop itself.
func isCoreOf(c, m query.CQ) bool {
	if !slices.Equal(c.Head, m.Head) || !query.Subsumes(m, c) {
		return false
	}
	rest := m.Atoms
	for _, a := range c.Atoms {
		i := slices.Index(rest, a)
		if i < 0 {
			return false
		}
		rest = rest[i+1:]
	}
	for i := range c.Atoms {
		if query.Subsumes(c, query.CQ{Head: c.Head, Atoms: slices.Delete(slices.Clone(c.Atoms), i, i+1)}) {
			return false
		}
	}
	return true
}

// A fragment runs its reformulation minimized and merged, which changes how
// its union is written and how many members it has, never what it answers:
// for every fragment of the singleton cover, of GCov's cover and — where it
// is small — of the one-block cover of the LUBM queries, Example 1 and
// queries over the hostile schema, each CQ the merged members stand for is
// the core of a member of the reformulation, every member of the
// reformulation is subsumed by one of them, they answer like the members on
// a store and on a 3-shard store, and they merge no further; a shape's
// parameters stay parameters, and a range reformulation's members with
// expansions stay as they are.
func TestMergedUnionIsTheUnion(t *testing.T) {
	merged, pruned := 0, 0
	for _, fx := range mergeFixtures(t) {
		e := engine.New(fx.g)
		st := e.Store()
		sources := []exec.Source{st, shard.Build(st.Dict(), fx.g.D(), 3)}
		typeID := fx.g.Dict().EncodeIRI(rdf.TypeIRI)
		for qi, q := range fx.queries {
			covers := []query.Cover{query.SingletonCover(len(q.Atoms))}
			if n, _ := e.Reformulator().CombinationCount(q); n <= core.DefaultMaxFragmentCQs {
				covers = append(covers, query.OneBlockCover(len(q.Atoms)))
			}
			res, err := core.GCov(e.Reformulator(), e.CostModel(), q, core.GCovOptions{})
			if err != nil {
				t.Fatal(err)
			}
			jucqs := []query.JUCQ{res.JUCQ}
			for _, c := range covers {
				j, err := e.Reformulator().ReformulateJUCQ(q, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				jucqs = append(jucqs, j)
			}
			for _, j := range jucqs {
				for fi, f := range j.Fragments {
					name := fmt.Sprintf("%s q%d %s fragment %d", fx.name, qi, j.Cover, fi)
					run := expand(f.Members)
					for _, c := range run {
						if !slices.ContainsFunc(f.UCQ.CQs, func(m query.CQ) bool { return isCoreOf(c, m) }) {
							t.Fatalf("%s: %v is the core of no member of the reformulation", name, c)
						}
					}
					for _, m := range f.UCQ.CQs {
						if !slices.ContainsFunc(run, func(c query.CQ) bool { return query.Subsumes(c, m) }) {
							t.Fatalf("%s: the member %v is subsumed by none of the %d run", name, m, len(run))
						}
					}
					if again := query.Merge(f.Members); !reflect.DeepEqual(again, f.Members) {
						t.Fatalf("%s: merging again gives %d members, not %d", name, len(again), len(f.Members))
					}
					if len(f.Members) < len(f.UCQ.CQs) {
						merged++
					}
					if len(run) < len(f.UCQ.CQs) {
						pruned++
					}
					for _, src := range sources {
						ev := exec.New(src, nil)
						want, err := ev.EvalUCQContext(context.Background(), f.UCQ)
						if err != nil {
							t.Fatal(err)
						}
						got, err := ev.EvalRangeUCQContext(context.Background(), query.RangeUCQ{HeadNames: f.UCQ.HeadNames, CQs: f.Members})
						if err != nil {
							t.Fatal(err)
						}
						if !got.Equal(want) {
							t.Fatalf("%s: merged members give %d rows, the members %d", name, got.Len(), want.Len())
						}
					}
				}
			}

			// A shape's parameter slots never merge: every member of a
			// merged fragment of the shape keeps them as they were.
			shape, params := query.Lift(q, typeID)
			if len(params) > 0 {
				j, err := e.Reformulator().ReformulateJUCQ(shape, query.SingletonCover(len(q.Atoms)), 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range j.Fragments {
					for _, cq := range f.Members {
						for _, a := range cq.Atoms {
							for _, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
								for _, r := range ra.Ranges {
									if _, param := query.Constant(r.Hi).Slot(); param {
										t.Fatalf("%s q%d: a parameter merged into %v", fx.name, qi, ra.Ranges)
									}
								}
							}
						}
					}
				}
			}

			// Members with an expansion are left as they are.
			ru := e.RangeReformulator().Reformulate(q)
			out := query.Merge(ru.CQs)
			for _, cq := range ru.CQs {
				if cq.Expansions() > 0 && !slices.ContainsFunc(out, func(m query.RangeCQ) bool { return reflect.DeepEqual(m, cq) }) {
					t.Fatalf("%s q%d: a member with an expansion was merged", fx.name, qi)
				}
			}
		}
	}
	if merged == 0 || pruned == 0 {
		t.Fatalf("%d fragments merged, %d pruned: the property was checked on nothing", merged, pruned)
	}
}

// Merge on hand-made unions: members differing in one constant merge, in
// first-occurrence order, into the sorted set of those constants; members
// differing in a head argument, in a variable, in a parameter or in two
// positions do not, nor do members with an expansion.
func TestMergeRules(t *testing.T) {
	x, y := query.Variable("x"), query.Variable("y")
	c := query.Constant
	cq := func(head []query.Arg, atoms ...query.Atom) query.RangeCQ {
		return query.CQ{Head: head, Atoms: atoms}.Lift()
	}
	hx := []query.Arg{x}
	in := []query.RangeCQ{
		cq(hx, query.Atom{S: x, P: c(1), O: c(7)}),
		cq(hx, query.Atom{S: x, P: c(2), O: y}),
		cq(hx, query.Atom{S: x, P: c(1), O: c(5)}),
		cq([]query.Arg{c(9)}, query.Atom{S: x, P: c(1), O: c(6)}), // another head
		cq(hx, query.Atom{S: x, P: c(1), O: c(6)}),
		cq(hx, query.Atom{S: x, P: c(3), O: y}),
		cq(hx, query.Atom{S: x, P: c(1), O: query.Param(0)}), // a parameter
		cq(hx, query.Atom{S: x, P: c(4), O: c(8)}),           // two positions off
		cq(hx, query.Atom{S: x, P: c(5), O: c(1)}),
		cq(hx, query.Atom{S: x, P: c(5), O: c(2)}),
	}
	for _, m := range in[len(in)-2:] {
		m.Atoms[0].Expand = &query.Expansion{In: "x", Out: y}
	}
	got := query.Merge(in)
	want := []string{
		"x 1 [5-7]", "x [2-3] y", "x 1 6", "x 1 $1", "x 4 8", "x 5 1", "x 5 2",
	}
	if len(got) != len(want) {
		t.Fatalf("%d members, want %d: %v", len(got), len(want), got)
	}
	for i, m := range got {
		a := m.Atoms[0]
		s := fmt.Sprintf("%s %s %s", pos(a.S), pos(a.P), pos(a.O))
		if s != want[i] {
			t.Errorf("member %d is %q, want %q", i, s, want[i])
		}
	}
	if got[2].Head[0] != c(9) {
		t.Errorf("the member with another head is %v", got[2])
	}
	if in[0].Atoms[0].O.Ranges != nil {
		t.Error("Merge wrote to its input")
	}
}

func pos(ra query.RangeArg) string {
	switch {
	case ra.Ranges != nil:
		s := ""
		for _, r := range ra.Ranges {
			if s != "" {
				s += ","
			}
			if s += fmt.Sprint(r.Lo); !r.IsExact() {
				s += fmt.Sprintf("-%d", r.Hi)
			}
		}
		return "[" + s + "]"
	case ra.Arg.IsVar():
		return ra.Arg.Var
	}
	if slot, ok := ra.Arg.Slot(); ok {
		return fmt.Sprintf("$%d", slot+1)
	}
	return fmt.Sprint(ra.Arg.ID)
}
