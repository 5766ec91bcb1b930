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
	out := NewSet(u.HeadNames)
	var provenance [][]int
	g := e.newGuard(ctx)
	defer g.flush(e.Metrics)
	for ci, cq := range u.CQs {
		if err := g.err(); err != nil {
			return nil, nil, fmt.Errorf("%w (after %d/%d CQs)", err, ci, len(u.CQs))
		}
		// The member's own set names each of its answers once.
		member := NewSet(u.HeadNames)
		if err := e.evalCQ(cq.Lift(), nil, nil, g, nil, member); err != nil {
			return nil, nil, err
		}
		r := member.Rows
		for i := 0; i < r.Len(); i++ {
			if i&(checkEvery-1) == checkEvery-1 {
				if err := g.err(); err != nil {
					return nil, nil, err
				}
			}
			idx, added := out.insert(r.Row(i))
			if !added {
				provenance[idx] = append(provenance[idx], ci)
				continue
			}
			//reflint:hotalloc the slice is the returned provenance entry for a new distinct row — output shape, not per-iteration scratch
			provenance = append(provenance, []int{ci})
			if err := e.checkRows(out.Rows.Len()); err != nil {
				return nil, nil, err
			}
		}
	}
	return out.Rows, provenance, nil
}
