package cost

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

func buildModel(triples [][3]dict.ID) *Model {
	ts := make([]dict.Triple, len(triples))
	for i, t := range triples {
		ts[i] = dict.Triple{S: t[0], P: t[1], O: t[2]}
	}
	st := storage.Build(dict.New(), ts)
	return NewModel(stats.Collect(st))
}

func v(n string) query.Arg   { return query.Variable(n) }
func c(id dict.ID) query.Arg { return query.Constant(id) }

func TestAtomEstimate(t *testing.T) {
	m := buildModel([][3]dict.ID{
		{1, 10, 100}, {2, 10, 100}, {3, 10, 101}, {4, 11, 100},
	})
	e := m.Atom(query.Atom{S: v("x"), P: c(10), O: v("y")})
	if e.Card != 3 {
		t.Fatalf("card = %v, want 3", e.Card)
	}
	if e.V["x"] != 3 || e.V["y"] != 2 {
		t.Fatalf("V = %v", e.V)
	}
	if e.Cost != CScan*3 {
		t.Fatalf("cost = %v", e.Cost)
	}
}

func TestAtomRepeatedVarTakesMin(t *testing.T) {
	m := buildModel([][3]dict.ID{{1, 10, 100}, {2, 10, 100}})
	e := m.Atom(query.Atom{S: v("x"), P: c(10), O: v("x")})
	// x appears in s (V=2) and o (V=1): min wins.
	if e.V["x"] != 1 {
		t.Fatalf("V[x] = %v, want 1", e.V["x"])
	}
}

func TestCQEstimateJoinShrinks(t *testing.T) {
	m := buildModel([][3]dict.ID{
		{1, 10, 2}, {3, 10, 4}, {5, 10, 6},
		{2, 11, 7}, {4, 11, 8},
	})
	q := query.CQ{
		Head: []query.Arg{v("x")},
		Atoms: []query.Atom{
			{S: v("x"), P: c(10), O: v("y")},
			{S: v("y"), P: c(11), O: v("z")},
		},
	}
	e := m.CQ(q)
	// |A|=3, |B|=2, shared y with V(A,y)=3, V(B,y)=2 → 3·2/3 = 2.
	if e.Card != 2 {
		t.Fatalf("join card = %v, want 2", e.Card)
	}
	if e.Cost <= 0 {
		t.Fatalf("cost must be positive, got %v", e.Cost)
	}
}

func TestUCQEstimateAdds(t *testing.T) {
	m := buildModel([][3]dict.ID{{1, 10, 2}, {3, 11, 4}})
	u := query.UCQ{HeadNames: []string{"x"}, CQs: []query.CQ{
		{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}},
		{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(11), O: v("y")}}},
	}}
	e := m.UCQ(u)
	if e.Card != 2 {
		t.Fatalf("union card = %v, want 2", e.Card)
	}
	single := m.CQ(u.CQs[0])
	if e.Cost <= single.Cost {
		t.Fatal("union must cost more than one member")
	}
}

func TestJUCQEstimate(t *testing.T) {
	m := buildModel([][3]dict.ID{
		{1, 10, 2}, {2, 11, 3}, {4, 10, 5}, {5, 11, 6},
	})
	mkFrag := func(p dict.ID, a, b string) query.Fragment {
		return query.Fragment{UCQ: query.UCQ{HeadNames: []string{a, b}, CQs: []query.CQ{
			{Head: []query.Arg{v(a), v(b)}, Atoms: []query.Atom{{S: v(a), P: c(p), O: v(b)}}},
		}}}
	}
	j := query.JUCQ{
		HeadNames: []string{"x", "z"},
		Fragments: []query.Fragment{mkFrag(10, "x", "y"), mkFrag(11, "y", "z")},
	}
	e := m.JUCQ(j)
	if e.Card <= 0 || e.Cost <= 0 {
		t.Fatalf("estimate degenerate: %+v", e)
	}
	// Joining on y: 2·2/2 = 2.
	if e.Card != 2 {
		t.Fatalf("JUCQ card = %v, want 2", e.Card)
	}
}

func TestJoinEstimateNoSharedVars(t *testing.T) {
	a := Estimate{Card: 3, V: map[string]float64{"x": 3}}
	b := Estimate{Card: 4, V: map[string]float64{"y": 2}}
	out := joinEstimate(a, b)
	if out.Card != 12 {
		t.Fatalf("cross product card = %v, want 12", out.Card)
	}
	if out.V["x"] != 3 || out.V["y"] != 2 {
		t.Fatalf("V propagation wrong: %v", out.V)
	}
}

func TestJoinEstimateCapsV(t *testing.T) {
	a := Estimate{Card: 2, V: map[string]float64{"x": 2, "y": 2}}
	b := Estimate{Card: 1, V: map[string]float64{"y": 1}}
	out := joinEstimate(a, b)
	for varName, val := range out.V {
		if val > out.Card && out.Card >= 1 {
			t.Fatalf("V[%s]=%v exceeds card %v", varName, val, out.Card)
		}
	}
}

// A join over two shared variables divides by both distinct counts; the
// estimate is the same, to the last bit, on every call. (70/3/7 and 70/7/3
// differ in their last bits, so a division in map order would not be.)
func TestJoinEstimateIsDeterministic(t *testing.T) {
	a := Estimate{Card: 10, V: map[string]float64{"x": 3, "y": 7}}
	b := Estimate{Card: 7, V: map[string]float64{"x": 2, "y": 1}}
	want := Join(a, b).Card
	for range 200 {
		if got := Join(a, b).Card; got != want {
			t.Fatalf("Join card %v, then %v", want, got)
		}
	}
}

func TestEmptyCQ(t *testing.T) {
	m := buildModel(nil)
	e := m.CQ(query.CQ{})
	if e.Card != 0 || e.Cost != 0 {
		t.Fatalf("empty CQ estimate: %+v", e)
	}
	if got := m.JUCQ(query.JUCQ{}); got.Cost != 0 {
		t.Fatalf("empty JUCQ: %+v", got)
	}
}

// The model must rank the paper-style covers correctly: grouping a huge
// unselective atom with a selective one must beat evaluating it alone.
func TestModelPrefersSelectiveGrouping(t *testing.T) {
	// Property 10 is huge (60 triples), property 11 selective (2).
	var ts [][3]dict.ID
	for i := dict.ID(1); i <= 60; i++ {
		ts = append(ts, [3]dict.ID{i, 10, 500})
	}
	ts = append(ts, [3]dict.ID{1, 11, 600}, [3]dict.ID{2, 11, 601})
	m := buildModel(ts)

	big := query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(10), O: v("y")}}}
	sel := query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{{S: v("x"), P: c(11), O: v("z")}}}
	grouped := query.CQ{Head: []query.Arg{v("x")}, Atoms: append(append([]query.Atom(nil), big.Atoms...), sel.Atoms...)}

	scqLike := query.JUCQ{HeadNames: []string{"x"}, Fragments: []query.Fragment{
		{UCQ: query.UCQ{HeadNames: []string{"x"}, CQs: []query.CQ{big}}},
		{UCQ: query.UCQ{HeadNames: []string{"x"}, CQs: []query.CQ{sel}}},
	}}
	groupedJUCQ := query.JUCQ{HeadNames: []string{"x"}, Fragments: []query.Fragment{
		{UCQ: query.UCQ{HeadNames: []string{"x"}, CQs: []query.CQ{grouped}}},
	}}
	if m.JUCQ(groupedJUCQ).Cost >= m.JUCQ(scqLike).Cost {
		t.Fatalf("grouped cover must be estimated cheaper: grouped=%v scq=%v",
			m.JUCQ(groupedJUCQ).Cost, m.JUCQ(scqLike).Cost)
	}
}
