package query

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/dict"
)

func subsumeFixture() (*dict.Dict, dict.ID, dict.ID, dict.ID) {
	d := dict.New()
	return d, d.EncodeIRI("http://p"), d.EncodeIRI("http://q"), d.EncodeIRI("http://c")
}

func TestSubsumesBasic(t *testing.T) {
	_, p, q, c := subsumeFixture()

	// general: q(x) :- x p y   specific: q(x) :- x p y, x q z
	general := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	specific := NewCQ([]string{"x"}, []Atom{
		{S: Variable("x"), P: Constant(p), O: Variable("y")},
		{S: Variable("x"), P: Constant(q), O: Variable("z")},
	})
	if !Subsumes(general, specific) {
		t.Fatal("fewer atoms must subsume a superset body")
	}
	if Subsumes(specific, general) {
		t.Fatal("the superset body must not subsume back")
	}

	// Constant mismatch blocks the homomorphism.
	gc := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Constant(c)}})
	if Subsumes(gc, general) {
		t.Fatal("constant object cannot map to a variable")
	}
	// But a variable can map to a constant.
	if !Subsumes(general, gc) {
		t.Fatal("variable object must map onto the constant")
	}
}

func TestSubsumesHeadDiscipline(t *testing.T) {
	_, p, _, c := subsumeFixture()
	a := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	b := NewCQ([]string{"y"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	// Same bodies, different head positions: a's head maps x→(b's head)
	// y, but then the atom requires x→x — contradiction.
	if Subsumes(a, b) {
		t.Fatal("head correspondence must be enforced")
	}
	// Constant head on the specific side.
	spec := CQ{Head: []Arg{Constant(c)}, Atoms: []Atom{{S: Constant(c), P: Constant(p), O: Variable("y")}}}
	gen := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	if !Subsumes(gen, spec) {
		t.Fatal("head variable must map onto head constant")
	}
	if Subsumes(spec, gen) {
		t.Fatal("head constant cannot map onto head variable")
	}
	// Arity mismatch.
	if Subsumes(NewCQ([]string{"x", "y"}, gen.Atoms), gen) {
		t.Fatal("different head arity cannot subsume")
	}
}

func TestSubsumesRenamedEquivalent(t *testing.T) {
	_, p, _, _ := subsumeFixture()
	a := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	b := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("z")}})
	if !Subsumes(a, b) || !Subsumes(b, a) {
		t.Fatal("renamed copies must subsume each other")
	}
}

func TestSubsumesFoldingVariables(t *testing.T) {
	_, p, _, _ := subsumeFixture()
	// general: x p y, y p z (path of 2)  specific: x p x (self loop)
	general := NewCQ([]string{"x"}, []Atom{
		{S: Variable("x"), P: Constant(p), O: Variable("y")},
		{S: Variable("y"), P: Constant(p), O: Variable("z")},
	})
	loop := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("x")}})
	if !Subsumes(general, loop) {
		t.Fatal("the path query folds onto the self loop (x,y,z → x)")
	}
	if Subsumes(loop, general) {
		t.Fatal("the self loop requires an actual loop in the specific body")
	}
}

// minimized returns the union of the members, minimized.
func minimized(cqs ...CQ) []CQ {
	u := UCQ{CQs: cqs}
	u.minimize()
	return u.CQs
}

func TestMinimizeDropsRedundantMembers(t *testing.T) {
	_, p, q, _ := subsumeFixture()
	broad := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	narrow := NewCQ([]string{"x"}, []Atom{
		{S: Variable("x"), P: Constant(p), O: Variable("y")},
		{S: Variable("x"), P: Constant(q), O: Variable("z")},
	})
	other := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(q), O: Variable("y")}})
	got := minimized(narrow, broad, other)
	if len(got) != 2 {
		t.Fatalf("want 2 members left, got %d: %v", len(got), got)
	}
	// The broad member survives, the narrow one is gone.
	for _, cq := range got {
		if len(cq.Atoms) == 2 {
			t.Fatal("subsumed member survived")
		}
	}
}

// Of two equivalent members the earlier stays, whichever is written with
// more atoms: the later one's core is the earlier one's up to renaming. A
// core keeps the last of atoms that fold onto each other.
func TestMinimizeKeepsOneOfEquivalentPair(t *testing.T) {
	_, p, _, _ := subsumeFixture()
	a := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	b := NewCQ([]string{"x"}, []Atom{
		{S: Variable("x"), P: Constant(p), O: Variable("w")},
		{S: Variable("x"), P: Constant(p), O: Variable("v")},
	})
	for _, tc := range []struct {
		in   []CQ
		want string
	}{{[]CQ{a, b}, "y"}, {[]CQ{b, a}, "v"}} {
		got := minimized(tc.in...)
		if len(got) != 1 || len(got[0].Atoms) != 1 || got[0].Atoms[0].O.Var != tc.want {
			t.Fatalf("minimizing %v left %v, want the member with %s", tc.in, got, tc.want)
		}
	}
}

func TestMinimizeEmptyAndSingleton(t *testing.T) {
	if got := minimized(); len(got) != 0 {
		t.Fatal("empty union")
	}
	_, p, _, _ := subsumeFixture()
	one := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	if got := minimized(one); len(got) != 1 || len(got[0].Atoms) != 1 {
		t.Fatal("singleton union must be untouched")
	}
}

// Members equal but for a head constant the rules bound answer different
// rows: neither subsumes the other.
func TestMinimizeKeepsMembersApartByHeadConstant(t *testing.T) {
	d, p, _, c := subsumeFixture()
	c2 := d.EncodeIRI("http://c2")
	body := []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}}
	a := CQ{Head: []Arg{Variable("x"), Constant(c)}, Atoms: body}
	b := CQ{Head: []Arg{Variable("x"), Constant(c2)}, Atoms: body}
	if Subsumes(a, b) || Subsumes(b, a) {
		t.Fatal("members with different head constants subsume each other")
	}
	if got := minimized(a, b); len(got) != 2 {
		t.Fatalf("%d members left of two with different head constants", len(got))
	}
}

// The core step, with the head fixed: a parameter slot is a constant a
// variable may map to, never the other way; a head constant stays; a head
// variable is never folded away; a cycle is its own core.
func TestCore(t *testing.T) {
	_, p, q, c := subsumeFixture()
	x, y, z, w := Variable("x"), Variable("y"), Variable("z"), Variable("w")
	at := func(s, p, o Arg) Atom { return Atom{S: s, P: p, O: o} }
	pp, qq := Constant(p), Constant(q)
	for _, tc := range []struct {
		name     string
		q        CQ
		wantKept []int
	}{
		{"a variable maps to a parameter slot",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, z), at(x, pp, Param(0))}}, []int{1}},
		{"the parameter slot stays whatever is first",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, Param(0)), at(x, pp, z)}}, []int{0}},
		{"two parameter slots are two constants",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, Param(0)), at(x, pp, Param(1))}}, []int{0, 1}},
		{"a head variable is fixed",
			CQ{Head: []Arg{x, z}, Atoms: []Atom{at(x, pp, z), at(x, pp, Param(0))}}, []int{0, 1}},
		{"a head constant",
			CQ{Head: []Arg{x, Constant(c)}, Atoms: []Atom{at(x, pp, y), at(x, pp, Constant(c))}}, []int{1}},
		{"a constant does not move position",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, Constant(c)), at(Constant(c), pp, y)}}, []int{0, 1}},
		{"a cycle is a core",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, y), at(y, pp, x)}}, []int{0, 1}},
		{"two cycles through the head fold onto one",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, y), at(y, pp, x), at(x, pp, w), at(w, pp, x)}}, []int{2, 3}},
		{"a path folds onto a loop",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, y), at(y, pp, z), at(x, pp, x)}}, []int{2}},
		{"atoms on other properties stay",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, pp, y), at(x, qq, y)}}, []int{0, 1}},
		{"a repeated atom",
			CQ{Head: []Arg{x}, Atoms: []Atom{at(x, qq, y), at(x, qq, y)}}, []int{0}},
	} {
		before := slices.Clone(tc.q.Atoms)
		h := hom{steps: searchBudget}
		got := h.core(tc.q)
		var want []Atom
		for _, i := range tc.wantKept {
			want = append(want, tc.q.Atoms[i])
		}
		if !slices.Equal(got.Atoms, want) || !slices.Equal(got.Head, tc.q.Head) {
			t.Errorf("%s: core is %v, want %v", tc.name, got.Atoms, want)
		}
		if !slices.Equal(tc.q.Atoms, before) {
			t.Errorf("%s: core wrote its input", tc.name)
		}
	}
}

// The prefilter: a member's (position, constant) pairs are a subset of those
// of every member it subsumes, so the test runs general ⊆ specific.
func TestConstKeysPrefilter(t *testing.T) {
	_, p, q, c := subsumeFixture()
	x, y, z := Variable("x"), Variable("y"), Variable("z")
	general := NewCQ([]string{"x"}, []Atom{{S: x, P: Constant(p), O: y}})
	specific := NewCQ([]string{"x"}, []Atom{{S: x, P: Constant(p), O: y}, {S: x, P: Constant(q), O: Constant(c)}})
	gk, sk := constKeys(nil, general), constKeys(nil, specific)
	if !subset(gk, sk) || subset(sk, gk) {
		t.Fatalf("pairs %v and %v: the general member's must be the subset", gk, sk)
	}
	// The same constant at another position is another pair.
	moved := NewCQ([]string{"x"}, []Atom{{S: Constant(c), P: Constant(p), O: x}})
	if subset(constKeys(nil, NewCQ([]string{"x"}, []Atom{{S: x, P: Constant(p), O: Constant(c)}})), constKeys(nil, moved)) {
		t.Fatal("an object constant matched a subject constant")
	}
	// Keys of several members appended to one slice stay apart.
	flat := constKeys(nil, specific)
	n := len(flat)
	flat = constKeys(flat, NewCQ([]string{"x"}, []Atom{{S: x, P: Constant(q), O: Constant(c)}, {S: x, P: Constant(q), O: z}}))
	if got := flat[n:]; len(got) != 2 || got[0] != sk[1] || got[1] != sk[2] {
		t.Fatalf("second member's keys %v, want %v", got, sk[1:])
	}
}

// A reused homomorphism allocates nothing per check.
func TestSubsumesAllocatesNothing(t *testing.T) {
	_, p, q, _ := subsumeFixture()
	general := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}, {S: Variable("y"), P: Constant(q), O: Variable("z")}})
	specific := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("a")}, {S: Variable("a"), P: Constant(q), O: Variable("a")}})
	h := hom{steps: searchBudget}
	if allocs := testing.AllocsPerRun(100, func() {
		if !h.subsumes(general, specific, -1) {
			t.Fatal("no homomorphism")
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per check", allocs)
	}
}

// clique is q(y0) :- yi p yj for every ordered pair of n distinct variables:
// a CQ that is its own core, on which each homomorphism search for it into
// itself less an atom exhausts a space exponential in n.
func clique(p dict.ID, n int) CQ {
	var atoms []Atom
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				atoms = append(atoms, Atom{S: Variable(fmt.Sprint("y", i)), P: Constant(p), O: Variable(fmt.Sprint("y", j))})
			}
		}
	}
	return NewCQ([]string{"y0"}, atoms)
}

// A search stops when the budget is spent and answers "not subsumed", and a
// minimization spends one budget over the whole union: a rigid member and a
// renamed copy of it come through whole, in a bounded number of steps.
func TestMinimizeWithinBudget(t *testing.T) {
	_, p, _, _ := subsumeFixture()
	small := NewCQ([]string{"x"}, []Atom{{S: Variable("x"), P: Constant(p), O: Variable("y")}})
	if spent := (hom{}); spent.subsumes(small, small, -1) {
		t.Fatal("a search with no budget left found a homomorphism")
	}
	k := clique(p, 10)
	renamed := clique(p, 10)
	renamed.Atoms = slices.Clone(renamed.Atoms)
	for i, a := range renamed.Atoms {
		if a.S.Var != "y0" {
			renamed.Atoms[i].S = Variable("z" + a.S.Var)
		}
		if a.O.Var != "y0" {
			renamed.Atoms[i].O = Variable("z" + a.O.Var)
		}
	}
	start := time.Now()
	got := minimized(k, renamed)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("minimizing two 10-cliques took %v", took)
	}
	if len(got) < 1 || len(got) > 2 || len(got[0].Atoms) != len(k.Atoms) {
		t.Fatalf("minimizing the cliques left %d members, the first of %d atoms", len(got), len(got[0].Atoms))
	}
}
