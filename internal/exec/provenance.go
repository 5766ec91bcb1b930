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
	// The answer's rows are chained by hash, not held in a Set: a member's
	// row must find the index of the equal row, which a Set's bitmap does
	// not keep.
	out, at := NewRelation(u.HeadNames), newRowTable(0)
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
		for c := 0; c < r.chunks(); c++ {
			if err := g.err(); err != nil {
				return nil, nil, err
			}
			ids, n := r.chunk(c)
			for j := 0; j < n; j++ {
				if k := at.insert(out, ids[j*r.width:(j+1)*r.width]); k != -1 {
					provenance[k] = append(provenance[k], ci)
					continue
				}
				provenance = append(provenance, []int{ci})
				if err := e.checkRows(out.Len()); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return out, provenance, nil
}
