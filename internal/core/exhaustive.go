package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/query"
)

// MaxExhaustiveAtoms bounds ExhaustiveCov: the number of partitions is the
// Bell number of the atom count (B(8) = 4140), beyond which exhaustive
// search stops being a sensible baseline.
const MaxExhaustiveAtoms = 8

// ExhaustiveCov searches *all partition covers* of the query's atoms
// (non-overlapping fragments) and returns the cheapest according to the
// cost model. It is the ablation baseline for GCov: the greedy search
// explores a tiny slice of this space (plus overlapping covers GCov can
// reach but partitions cannot); comparing their picks quantifies how much
// cost-model-guided greediness gives up. Fragments over the CQ bound are
// pruned exactly like in GCov.
func ExhaustiveCov(r *Reformulator, m *cost.Model, q query.CQ, opts GCovOptions) (*GCovResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Atoms)
	if n > MaxExhaustiveAtoms {
		return nil, fmt.Errorf("core: exhaustive cover search limited to %d atoms, query has %d", MaxExhaustiveAtoms, n)
	}
	maxCQs := opts.MaxFragmentCQs
	if maxCQs <= 0 {
		maxCQs = DefaultMaxFragmentCQs
	}
	cache := newFragmentCache(r, m, q, maxCQs)

	res := &GCovResult{}
	var (
		best     query.Cover
		bestCost = -1.0
	)
	partitions(n, func(c query.Cover) {
		// Cheap pre-prune on the per-atom product bound.
		for _, frag := range c {
			if cache.product(frag) > maxCQs {
				res.Explored = append(res.Explored, Explored{
					Cover: c.Clone(), Pruned: true,
					Reason: fmt.Sprintf("fragment exceeds %d CQs", maxCQs),
				})
				return
			}
		}
		est, ok, err := cache.estimateCover(c)
		if err != nil || !ok {
			res.Explored = append(res.Explored, Explored{Cover: c.Clone(), Pruned: true, Reason: "fragment reformulation exceeds the bound"})
			return
		}
		adopted := bestCost < 0 || est.Cost < bestCost
		res.Explored = append(res.Explored, Explored{Cover: c.Clone(), Cost: est.Cost, Card: est.Card, Adopted: adopted})
		if adopted {
			best = c.Clone()
			bestCost = est.Cost
		}
	})
	if best == nil {
		return nil, fmt.Errorf("core: every partition cover exceeds the fragment bound %d", maxCQs)
	}
	if err := cache.materialize(res, best); err != nil {
		return nil, err
	}
	res.Cost = bestCost
	return res, nil
}

// Partitions enumerates every partition of {0..n-1} as a cover (Bell(n)
// many); fn must not retain the cover across calls. Exported for the
// cover-space sweep experiment (E7).
func Partitions(n int, fn func(query.Cover)) { partitions(n, fn) }

// partitions enumerates every partition of {0..n-1} as a cover, using
// restricted-growth strings; fn must not retain the cover (it is reused).
func partitions(n int, fn func(query.Cover)) {
	if n == 0 {
		return
	}
	assign := make([]int, n) // assign[i] = block of atom i
	var rec func(i, blocks int)
	rec = func(i, blocks int) {
		if i == n {
			cover := make(query.Cover, blocks)
			for atom, b := range assign {
				cover[b] = append(cover[b], atom)
			}
			fn(cover)
			return
		}
		for b := 0; b <= blocks; b++ {
			assign[i] = b
			next := blocks
			if b == blocks {
				next = blocks + 1
			}
			rec(i+1, next)
		}
	}
	rec(0, 0)
}
