package cost

import "repro/internal/query"

// This file prices range CQs (the ref-range reformulation) so the planner
// can compare ref-range against the UCQ/SCQ/JUCQ/GCov strategies. A range
// atom is an atom like any other to the executor — scanned or probed, in
// the one greedy order — so a range CQ is priced by the same plan as a
// plain one; what is range-specific is an atom's own estimate and the
// expansions, which multiply cardinality by the average hierarchy fan-out.

// expansionFanout returns the average number of output bindings an
// expansion emits per input row (1 for reflexivity plus the mean table
// fan-out).
func expansionFanout(e *query.Expansion) float64 {
	fan := 0.0
	if e.Reflexive {
		fan = 1
	}
	if len(e.Table) == 0 {
		return maxF(fan, 1)
	}
	total := 0
	for _, v := range e.Table {
		total += len(v)
	}
	return maxF(fan+float64(total)/float64(len(e.Table)), 1)
}

// RangeAtom estimates one atom scan in the executor's atom form: an atom
// that is not ranged is Atom of its plain form; a ranged one takes the exact
// range-pattern count for its cardinality and its per-variable distinct
// counts from the pattern without the ranges (capped by the cardinality).
func (m *Model) RangeAtom(a query.RangeAtom) Estimate {
	if !a.Ranged() {
		return m.Atom(a.Plain())
	}
	if m.params != nil {
		a.S.Arg, a.O.Arg = a.S.Arg.Bind(m.params), a.O.Arg.Bind(m.params)
	}
	card := m.st.RangeCard(a.RangePattern())
	est := Estimate{Cost: CScan * card, Card: card, V: map[string]float64{}}
	relaxed := a.Plain().Pattern()
	for i, ra := range [3]query.RangeArg{a.S, a.P, a.O} {
		if !ra.Arg.IsVar() {
			continue
		}
		pos := [3]byte{'s', 'p', 'o'}[i]
		v := m.st.DistinctVar(relaxed, pos)
		if v > card {
			v = maxF(card, 1)
		}
		if old, ok := est.V[ra.Arg.Var]; !ok || v < old {
			est.V[ra.Arg.Var] = v
		}
	}
	return est
}

// RangeCQ estimates one range CQ by the plan the executor runs for it —
// the plan of CQ, over range atoms — followed by the expansion fan-outs.
// emit, when non-nil, receives the plan's steps in order (EXPLAIN's
// operator nodes).
func (m *Model) RangeCQ(q query.RangeCQ, emit func(PlanStep)) Estimate {
	var buf [8]Estimate
	ests := buf[:0]
	for _, a := range q.Atoms {
		ests = append(ests, m.RangeAtom(a))
	}
	cur := m.plan(ests, true, emit)
	for _, a := range q.Atoms {
		if a.Expand == nil {
			continue
		}
		fan := expansionFanout(a.Expand)
		cur.Card *= fan
		cur.Cost += COut * cur.Card
		if a.Expand.Out.IsVar() {
			cur.V[a.Expand.Out.Var] = maxF(minF(float64(len(a.Expand.Table)), cur.Card), 1)
		}
	}
	return cur
}

// RangeUCQ estimates a union of range CQs: costs and cardinalities add up,
// as in UCQ.
func (m *Model) RangeUCQ(u query.RangeUCQ) Estimate {
	out := Estimate{V: map[string]float64{}}
	for _, cq := range u.CQs {
		e := m.RangeCQ(cq, nil)
		out.Cost += e.Cost
		out.Card += e.Card
		for v, n := range e.V {
			out.V[v] += n
		}
	}
	for v := range out.V {
		if out.V[v] > out.Card {
			out.V[v] = out.Card
		}
	}
	return out
}
