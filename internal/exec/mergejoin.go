package exec

import (
	"sort"

	"repro/internal/dict"
	"repro/internal/trace"
)

// JoinAlgorithm selects how materialized relations are joined (fragment
// joins and non-INLJ atom joins). INLJ decisions are orthogonal (see
// ForceHashJoins).
type JoinAlgorithm int

const (
	// JoinHash (default) builds a hash table on the smaller side.
	JoinHash JoinAlgorithm = iota
	// JoinMerge sorts both sides on the shared columns and merges — the
	// classic RDBMS alternative; ablation knob for the join design choice.
	JoinMerge
)

// mergeJoin joins two materialized relations on their shared variables by
// sorting both on the join key and merging equal-key groups. Falls back to
// the hash join when there is no shared variable (a cross product gains
// nothing from sorting).
func (e *Evaluator) mergeJoin(l, r *Relation, g guard, sp *trace.Span, est float64) (*Relation, error) {
	shared := sharedVars(l.Vars, r.Vars)
	if len(shared) == 0 {
		return e.hashJoin(l, r, g, sp, est)
	}
	msp := joinSpan(sp, "merge", shared, l.Len(), est)
	if msp != nil {
		defer msp.End()
		msp.SetInt("right_rows", int64(r.Len()))
	}
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = l.ColumnIndex(v)
		rIdx[i] = r.ColumnIndex(v)
	}
	lOrder := sortedOrder(l, lIdx)
	rOrder := sortedOrder(r, rIdx)

	// Output columns: all of l's, then r's non-shared.
	outVars := append([]string(nil), l.Vars...)
	var extraCols []int
	for i, v := range r.Vars {
		if l.ColumnIndex(v) == -1 {
			outVars = append(outVars, v)
			extraCols = append(extraCols, i)
		}
	}
	out := NewRelation(outVars)
	outRow := make([]dict.ID, len(outVars))

	cmpKeys := func(lr, rr []dict.ID) int {
		for k := range shared {
			a, b := lr[lIdx[k]], rr[rIdx[k]]
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	li, ri := 0, 0
	steps := 0
	for li < l.Len() && ri < r.Len() {
		steps++
		if steps&(checkEvery-1) == 0 {
			if err := g.err(); err != nil {
				return nil, err
			}
		}
		lr := l.Row(lOrder[li])
		rr := r.Row(rOrder[ri])
		switch cmpKeys(lr, rr) {
		case -1:
			li++
		case 1:
			ri++
		default:
			// Find the extent of the equal-key group on both sides. Skewed
			// keys can make a group arbitrarily large, so these walks poll
			// the guard like any other row loop.
			lEnd := li + 1
			for lEnd < l.Len() && cmpKeys(l.Row(lOrder[lEnd]), rr) == 0 {
				steps++
				if steps&(checkEvery-1) == 0 {
					if err := g.err(); err != nil {
						return nil, err
					}
				}
				lEnd++
			}
			rEnd := ri + 1
			for rEnd < r.Len() && cmpKeys(lr, r.Row(rOrder[rEnd])) == 0 {
				steps++
				if steps&(checkEvery-1) == 0 {
					if err := g.err(); err != nil {
						return nil, err
					}
				}
				rEnd++
			}
			for a := li; a < lEnd; a++ {
				la := l.Row(lOrder[a])
				for b := ri; b < rEnd; b++ {
					steps++
					if steps&(checkEvery-1) == 0 {
						if err := g.err(); err != nil {
							return nil, err
						}
					}
					rb := r.Row(rOrder[b])
					copy(outRow, la)
					for j, c := range extraCols {
						outRow[len(la)+j] = rb[c]
					}
					out.Append(outRow)
					if err := e.checkRows(out.Len()); err != nil {
						return nil, err
					}
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	g.addJoined(out.Len())
	if msp != nil {
		msp.SetInt("rows", int64(out.Len()))
		msp.End()
	}
	return out, nil
}

// sortedOrder returns row indexes of rel ordered by the given columns.
func sortedOrder(rel *Relation, cols []int) []int {
	order := make([]int, rel.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := rel.Row(order[a]), rel.Row(order[b])
		for _, c := range cols {
			if ra[c] != rb[c] {
				return ra[c] < rb[c]
			}
		}
		return false
	})
	return order
}

// materializedJoin dispatches on the configured join algorithm.
func (e *Evaluator) materializedJoin(l, r *Relation, g guard, sp *trace.Span, est float64) (*Relation, error) {
	if e.Join == JoinMerge {
		return e.mergeJoin(l, r, g, sp, est)
	}
	return e.hashJoin(l, r, g, sp, est)
}
