package core

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/query"
)

// GCovOptions tunes the greedy cover search.
type GCovOptions struct {
	// MaxFragmentCQs bounds the UCQ size of any fragment a candidate
	// cover may contain; candidates exceeding it are pruned (their
	// reformulations are exactly the "syntactically huge" queries the
	// search exists to avoid). Zero means DefaultMaxFragmentCQs.
	MaxFragmentCQs int
	// KeepSubsumed keeps fragments that became subsets of a grown
	// fragment instead of dropping them. The paper's covers may overlap;
	// dropping subsumed fragments only removes fully redundant joins.
	KeepSubsumed bool
}

// DefaultMaxFragmentCQs is the default bound on per-fragment UCQ size.
const DefaultMaxFragmentCQs = 4096

// Explored records one cover considered by GCov, for the demo's step 3
// inspection ("the space of explored alternatives, and their estimated
// costs").
type Explored struct {
	Cover   query.Cover
	Cost    float64
	Card    float64
	Adopted bool
	Pruned  bool
	Reason  string
}

// GCovResult is the outcome of the greedy search.
type GCovResult struct {
	Cover     query.Cover
	JUCQ      query.JUCQ
	Estimates []cost.Estimate // JUCQ's fragments', as the search priced them
	Cost      float64
	Explored  []Explored
}

// GCov runs the paper's greedy cost-based cover selection (§4): starting
// from the cover with each atom alone in a fragment (whose JUCQ is the SCQ
// reformulation), it repeatedly adds an atom to a fragment — dropping
// fragments the grown fragment subsumes unless KeepSubsumed — whenever the
// cost model says the new cover evaluates cheaper, until no single
// extension improves the estimate.
func GCov(r *Reformulator, m *cost.Model, q query.CQ, opts GCovOptions) (*GCovResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	maxCQs := opts.MaxFragmentCQs
	if maxCQs <= 0 {
		maxCQs = DefaultMaxFragmentCQs
	}
	cache := newFragmentCache(r, m, q, maxCQs)

	res := &GCovResult{}
	cur := query.SingletonCover(len(q.Atoms))
	curEst, _, err := cache.estimateCover(cur)
	if err != nil {
		return nil, fmt.Errorf("core: singleton cover itself exceeds the fragment bound: %w", err)
	}
	res.Explored = append(res.Explored, Explored{Cover: cur.Clone(), Cost: curEst.Cost, Card: curEst.Card, Adopted: true})

	seen := map[string]bool{cur.Key(): true}
	for {
		type candidate struct {
			cover query.Cover
			est   cost.Estimate
		}
		var best *candidate
		for fi := range cur {
			for ai := 0; ai < len(q.Atoms); ai++ {
				if containsInt(cur[fi], ai) {
					continue
				}
				next := growCover(cur, fi, ai, opts.KeepSubsumed)
				key := next.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				if prod := cache.product(next[indexOfGrown(next, cur[fi], ai)]); prod > maxCQs {
					res.Explored = append(res.Explored, Explored{
						Cover: next, Pruned: true,
						Reason: fmt.Sprintf("fragment would reach %d CQs (bound %d)", prod, maxCQs),
					})
					continue
				}
				est, ok, err := cache.estimateCover(next)
				if err != nil || !ok {
					reason := "fragment reformulation exceeds the bound"
					if err != nil {
						reason = err.Error()
					}
					res.Explored = append(res.Explored, Explored{Cover: next, Pruned: true, Reason: reason})
					continue
				}
				res.Explored = append(res.Explored, Explored{Cover: next, Cost: est.Cost, Card: est.Card})
				if est.Cost < curEst.Cost && (best == nil || est.Cost < best.est.Cost) {
					best = &candidate{cover: next, est: est}
				}
			}
		}
		if best == nil {
			break
		}
		cur, curEst = best.cover, best.est
		res.Explored = append(res.Explored, Explored{Cover: cur.Clone(), Cost: curEst.Cost, Card: curEst.Card, Adopted: true})
	}
	if err := cache.materialize(res, cur); err != nil {
		return nil, err
	}
	res.Cost = curEst.Cost
	return res, nil
}

// fragmentCache memoizes per-fragment reformulations and estimates across
// the candidate covers GCov prices.
type fragmentCache struct {
	r        *Reformulator
	m        *cost.Model
	q        query.CQ
	maxCQs   int
	entries  map[string]*fragEntry
	atomSets [][]AtomRef // the reformulation closure of each atom of q
}

type fragEntry struct {
	frag   query.Fragment
	est    cost.Estimate
	tooBig bool
}

// newFragmentCache computes every atom's reformulation closure, once: the
// sizes prune candidates whose fragment-CQ product already exceeds the bound
// without assembling anything (product), and get combines the same sets into
// the fragment UCQs it memoizes, with their estimates, across candidate
// covers — the same fragment reappears in many.
func newFragmentCache(r *Reformulator, m *cost.Model, q query.CQ, maxCQs int) *fragmentCache {
	fc := &fragmentCache{r: r, m: m, q: q, maxCQs: maxCQs, entries: map[string]*fragEntry{}}
	fc.atomSets = make([][]AtomRef, len(q.Atoms))
	for i, a := range q.Atoms {
		fc.atomSets[i] = r.AtomReformulations(a, i)
	}
	return fc
}

func (fc *fragmentCache) get(frag []int) (*fragEntry, error) {
	key := query.Cover{frag}.Key()
	if e, ok := fc.entries[key]; ok {
		return e, nil
	}
	fcq := query.FragmentCQ(fc.q, frag)
	u := query.UCQ{HeadNames: query.HeadVarNames(fcq)}
	perAtom := make([][]AtomRef, len(fcq.Atoms))
	for i, ai := range frag {
		perAtom[i] = fc.atomSets[ai]
	}
	over := false
	fc.r.enumerate(fcq, perAtom, func(cq query.CQ) bool {
		u.CQs = append(u.CQs, cq)
		if fc.maxCQs > 0 && len(u.CQs) > fc.maxCQs {
			over = true
			return false
		}
		return true
	})
	if over {
		e := &fragEntry{tooBig: true}
		fc.entries[key] = e
		return e, nil
	}
	u.Dedup()
	e := &fragEntry{
		frag: query.Fragment{AtomIndexes: append([]int(nil), frag...), CQ: fcq, UCQ: u},
		est:  fc.m.UCQ(u),
	}
	fc.entries[key] = e
	return e, nil
}

// estimateCover prices a cover from cached fragment estimates; ok=false
// when some fragment exceeds the size bound.
func (fc *fragmentCache) estimateCover(c query.Cover) (cost.Estimate, bool, error) {
	ests := make([]cost.Estimate, 0, len(c))
	for _, frag := range c {
		e, err := fc.get(frag)
		if err != nil {
			return cost.Estimate{}, false, err
		}
		if e.tooBig {
			return cost.Estimate{}, false, nil
		}
		ests = append(ests, e.est)
	}
	return fc.m.JoinFragments(ests, nil), true, nil
}

// materialize sets res's cover, and the JUCQ and fragment estimates it
// assembles for it from cached fragments, merged (query.UCQ.Merged): the
// search prices candidates member by member, only the chosen cover is merged.
func (fc *fragmentCache) materialize(res *GCovResult, c query.Cover) error {
	j := query.JUCQ{HeadNames: query.HeadVarNames(fc.q), Cover: c.Clone()}
	ests := make([]cost.Estimate, 0, len(c))
	for _, frag := range c {
		e, err := fc.get(frag)
		if err != nil {
			return err
		}
		if e.tooBig {
			return fmt.Errorf("core: fragment %v reformulation exceeds %d CQs", frag, fc.maxCQs)
		}
		f := e.frag
		f.Members = f.UCQ.Merged()
		j.Fragments = append(j.Fragments, f)
		ests = append(ests, e.est)
	}
	res.Cover, res.JUCQ, res.Estimates = c, j, ests
	return nil
}

// growCover returns cur with atom ai added to fragment fi; fragments that
// become subsets of the grown fragment are dropped unless keepSubsumed.
func growCover(cur query.Cover, fi, ai int, keepSubsumed bool) query.Cover {
	grown := append(append([]int(nil), cur[fi]...), ai)
	sortInts(grown)
	out := make(query.Cover, 0, len(cur))
	for i, f := range cur {
		if i == fi {
			out = append(out, grown)
			continue
		}
		if !keepSubsumed && isSubset(f, grown) {
			continue
		}
		out = append(out, append([]int(nil), f...))
	}
	return out
}

// indexOfGrown locates the fragment of next that is old grown by ai.
func indexOfGrown(next query.Cover, old []int, ai int) int {
	grown := append(append([]int(nil), old...), ai)
	sortInts(grown)
	for i, f := range next {
		if equalInts(f, grown) {
			return i
		}
	}
	return 0 // unreachable by construction
}

// product upper-bounds the fragment's UCQ size as the product of its atoms'
// reformulation counts.
func (fc *fragmentCache) product(frag []int) int {
	p := 1
	for _, ai := range frag {
		p *= len(fc.atomSets[ai])
		if p < 0 { // overflow guard
			return int(^uint(0) >> 1)
		}
	}
	return p
}

// FormatExplored renders the explored cover space (demo step 3).
func FormatExplored(explored []Explored) string {
	var sb strings.Builder
	for _, e := range explored {
		switch {
		case e.Pruned:
			fmt.Fprintf(&sb, "  pruned  %-40s %s\n", e.Cover, e.Reason)
		case e.Adopted:
			fmt.Fprintf(&sb, "  adopted %-40s cost=%.0f card=%.0f\n", e.Cover, e.Cost, e.Card)
		default:
			fmt.Fprintf(&sb, "  tried   %-40s cost=%.0f card=%.0f\n", e.Cover, e.Cost, e.Card)
		}
	}
	return sb.String()
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func isSubset(a, b []int) bool {
	for _, x := range a {
		if !containsInt(b, x) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
