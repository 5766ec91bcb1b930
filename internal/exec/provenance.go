package exec

import (
	"context"
	"fmt"

	"repro/internal/query"
)

// EvalUCQWithProvenanceContext evaluates a union like EvalUCQContext but
// additionally reports, for every distinct answer row, which member CQs
// produced it — the demo-style explanation of *why* an implicit answer
// exists (each non-identity member corresponds to a chain of constraint
// applications). provenance[i] lists the 0-based indexes into u.CQs for row
// i of the result, in ascending order.
func (e *Evaluator) EvalUCQWithProvenanceContext(ctx context.Context, u query.UCQ) (*Relation, [][]int, error) {
	out := NewRelation(u.HeadNames)
	var provenance [][]int
	seen := map[string]int{} // row key -> row index in out
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	key := make([]byte, 0, 16)
	steps := 0
	for ci, cq := range u.CQs {
		if err := g.err(); err != nil {
			return nil, nil, fmt.Errorf("%w (after %d/%d CQs)", err, ci, len(u.CQs))
		}
		r, err := e.evalCQ(u.HeadNames, cq.Lift(), nil, g, nil)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < r.Len(); i++ {
			steps++
			if steps&(checkEvery-1) == 0 {
				if err := g.err(); err != nil {
					return nil, nil, err
				}
			}
			row := r.Row(i)
			key = rowKey(key[:0], row)
			if idx, ok := seen[string(key)]; ok {
				provenance[idx] = append(provenance[idx], ci)
				continue
			}
			seen[string(key)] = out.Len()
			out.Append(row)
			//reflint:hotalloc the slice is the returned provenance entry for a new distinct row — output shape, not per-iteration scratch
			provenance = append(provenance, []int{ci})
			if err := e.checkRows(out.Len()); err != nil {
				return nil, nil, err
			}
		}
		// Boolean queries have zero-width rows that all share one key;
		// handle them through the same map using the empty key.
	}
	return out, provenance, nil
}
