package cost_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/storage"
)

// sameEstimate compares two estimates field by field, numbers to twelve
// digits: the join-size formula divides by its shared variables' distinct
// counts in map order, so the last bits of an estimate over a join on two
// variables vary from one call to the next.
func sameEstimate(a, b cost.Estimate) bool {
	same := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Max(math.Abs(x), math.Abs(y)) }
	if !same(a.Cost, b.Cost) || !same(a.Card, b.Card) || len(a.V) != len(b.V) {
		return false
	}
	for v, n := range a.V {
		if m, ok := b.V[v]; !ok || !same(n, m) {
			return false
		}
	}
	return true
}

// A plain atom is a range atom without ranges: the range CQ a plain CQ lifts
// to is priced as the plain CQ is, field by field, on LUBM Q1–Q14 over the
// saturated statistics (where the plans mix probes and hash joins) and over
// the explicit ones.
func TestRangeCQOfLiftedCQIsCQ(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g)
	qs, err := lubm.ParseQueries(g.Dict(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*cost.Model{"sat": e.SatCostModel(), "explicit": e.CostModel()} {
		for _, q := range qs {
			want, got := m.CQ(q.CQ), m.RangeCQ(q.CQ.Lift(), nil)
			if !sameEstimate(got, want) {
				t.Errorf("%s %s: RangeCQ(lift(q)) = %+v, CQ(q) = %+v", q.Name, name, got, want)
			}
		}
	}
}

// Pick: connected before unconnected, then the smaller, then the earlier;
// with nothing connected, the smallest.
func TestPick(t *testing.T) {
	card := []float64{5, 3, 3, 9, 1}
	cardOf := func(i int) float64 { return card[i] }
	all := []int{0, 1, 2, 3, 4}
	if pos, conn := cost.Pick(all, cardOf, nil); pos != 4 || conn {
		t.Fatalf("first pick = %d connected=%v, want the smallest (4), unconnected", pos, conn)
	}
	connected := func(i int) bool { return i == 0 || i == 3 }
	if pos, conn := cost.Pick(all, cardOf, connected); pos != 0 || !conn {
		t.Fatalf("pick = %d connected=%v, want the smaller connected operand (0)", pos, conn)
	}
	if pos, _ := cost.Pick([]int{2, 1}, cardOf, nil); pos != 0 {
		t.Fatalf("pick on a tie = %d, want the earlier position", pos)
	}
}

// The plan loop adds no allocation of its own to what it prices: Model.CQ
// allocates what its per-atom estimates and per-join estimates do,
// Model.JoinFragments what its joins do — Pick, its closures and the
// planning buffers stay on the stack. GCov calls both thousands of times
// per cold query.
func TestPlanAllocatesNothing(t *testing.T) {
	var ts []dict.Triple
	for i := dict.ID(1); i <= 40; i++ {
		ts = append(ts, dict.Triple{S: i, P: 100, O: i + 1}, dict.Triple{S: i, P: 101, O: 500 + i%3},
			dict.Triple{S: i, P: 102, O: 600})
	}
	m := cost.NewModel(stats.Collect(storage.Build(dict.New(), ts)))
	v, c := query.Variable, query.Constant
	q := query.CQ{Head: []query.Arg{v("x")}, Atoms: []query.Atom{
		{S: v("x"), P: c(100), O: v("y")},
		{S: v("y"), P: c(101), O: v("z")},
		{S: v("x"), P: c(102), O: c(600)},
	}}
	ests := make([]cost.Estimate, len(q.Atoms))
	parts := testing.AllocsPerRun(100, func() {
		for i, a := range q.Atoms {
			ests[i] = m.Atom(a)
		}
	})
	joins := testing.AllocsPerRun(100, func() {
		cost.Join(cost.Join(ests[0], ests[1]), ests[2])
	})
	if got, want := testing.AllocsPerRun(100, func() { m.CQ(q) }), parts+joins; got > want {
		t.Errorf("Model.CQ allocates %v per call, its estimates and joins %v", got, want)
	}
	if got := testing.AllocsPerRun(100, func() { m.JoinFragments(ests, nil) }); got > joins {
		t.Errorf("Model.JoinFragments allocates %v per call, its joins %v", got, joins)
	}
}

// A JUCQ's fragments follow the atom rule: the plan starts from the fragment
// of lowest estimate, takes connected fragments before one sharing nothing,
// and probes a connected fragment by a semijoin where PreferINLJ says so — a
// step priced as the hash join it replaces, on top of every fragment's own
// cost.
func TestFragmentPlanFollowsTheAtomRule(t *testing.T) {
	frags := []cost.Estimate{
		{Cost: 900, Card: 50000, V: map[string]float64{"x": 5000}},
		{Cost: 30, Card: 100, V: map[string]float64{"x": 100, "y": 100}},
		{Cost: 40, Card: 20, V: map[string]float64{"z": 20}},
		{Cost: 70, Card: 300, V: map[string]float64{"y": 300}},
	}
	var steps []cost.PlanStep
	got := cost.NewModel(nil).JoinFragments(frags, func(st cost.PlanStep) { steps = append(steps, st) })
	var ops []string
	want := 0.0
	for i, st := range steps {
		ops = append(ops, fmt.Sprint(st.Op, " ", st.Index))
		want += st.Atom.Cost
		if i > 0 {
			cur := steps[i-1].Out.Card
			want += cost.CBuild*min(cur, st.Atom.Card) + cost.CScan*max(cur, st.Atom.Card) + cost.COut*st.Out.Card
		}
	}
	// Fragment 2 is the smallest but shares nothing: the plan starts there
	// and crosses to the smallest of the rest, 1; its 2 000 rows hash in
	// fragment 3 (PreferINLJ(2000, 300) is false) and probe the 50 000 of
	// fragment 0.
	if fmt.Sprint(ops) != "[scan 2 cross 1 hashjoin 3 semijoin 0]" {
		t.Fatalf("plan steps %v", ops)
	}
	if got.Cost != want {
		t.Fatalf("plan cost %v, the fragments' costs plus hash joins %v", got.Cost, want)
	}
}
