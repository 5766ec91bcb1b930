package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/query"
)

// E7Result is the cover-space sweep behind the demo's cost-based story:
// the evaluation performance of distinct JUCQs from the cover space
// "may differ by several orders of magnitude" ([5], quoted in §2), and the
// cost model must rank them well enough for GCov's greedy walk to land
// near the best. The sweep evaluates every partition cover of Example 1
// (fragment bound applied) plus GCov's overlapping pick, and reports the
// actual spread and the cost-model/runtime rank correlation.
type E7Result struct {
	Points []E7Point
	// SpreadFactor = slowest / fastest evaluated cover.
	SpreadFactor float64
	// RankCorrelation is Spearman's ρ between estimated cost and actual
	// evaluation time over the sweep.
	RankCorrelation float64
	// GCovRank is the 1-based position of GCov's pick when covers are
	// ordered by actual evaluation time (1 = GCov found the fastest).
	GCovRank int
	Table    Table
}

// E7Point is one evaluated cover.
type E7Point struct {
	Cover    string
	EstCost  float64
	EvalTime time.Duration
	Answers  int
	GCov     bool
}

// E7 sweeps the partition-cover space of Example 1.
func E7(cfg Config) (*E7Result, error) {
	cfg = cfg.withDefaults()
	g, err := lubm.NewGraph(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	univ := lubm.PickExampleOneUniversity(g)
	if univ == "" {
		univ = "http://www.University0.edu"
	}
	q, err := lubm.ExampleOne(g.Dict(), univ)
	if err != nil {
		return nil, err
	}
	e := engine.New(g)
	//reflint:ctxbg experiment driver: nothing upstream cancels it, cfg.Timeout bounds each evaluation
	ctx := context.Background()
	r := e.Reformulator()
	m := e.CostModel()

	evalCover := func(c query.Cover, isGCov bool) (*E7Point, error) {
		j, err := r.ReformulateJUCQ(q, c, core.DefaultMaxFragmentCQs)
		if err != nil {
			return nil, nil // over the fragment bound: skipped, like GCov prunes
		}
		est := m.JUCQ(j)
		ev := exec.New(e.Store(), e.Stats())
		// Covers with variable-disjoint fragments cross-product their
		// results; cap intermediate sizes so they fail fast instead of
		// burning the whole per-cover timeout (they are reported as
		// skipped, like the paper's infeasible points).
		ev.Budget = exec.Budget{Timeout: cfg.Timeout, MaxRows: 2_000_000}
		start := time.Now()
		rows, err := ev.EvalJUCQContext(ctx, j)
		if err != nil {
			return nil, nil // infeasible under the budget: skipped
		}
		return &E7Point{
			Cover: c.String(), EstCost: est.Cost,
			EvalTime: time.Since(start), Answers: rows.Len(), GCov: isGCov,
		}, nil
	}

	res := &E7Result{}
	var sweepErr error
	core.Partitions(len(q.Atoms), func(c query.Cover) {
		if sweepErr != nil {
			return
		}
		pt, err := evalCover(c.Clone(), false)
		if err != nil {
			sweepErr = err
			return
		}
		if pt != nil {
			res.Points = append(res.Points, *pt)
		}
	})
	if sweepErr != nil {
		return nil, sweepErr
	}
	// GCov's (possibly overlapping) pick.
	gres, err := core.GCov(r, m, q, core.GCovOptions{})
	if err != nil {
		return nil, err
	}
	if pt, err := evalCover(gres.Cover, true); err == nil && pt != nil {
		res.Points = append(res.Points, *pt)
	}
	if len(res.Points) < 2 {
		return nil, fmt.Errorf("bench: sweep evaluated %d covers, need ≥2", len(res.Points))
	}

	// Spread and correlation.
	fastest, slowest := res.Points[0].EvalTime, res.Points[0].EvalTime
	for _, p := range res.Points {
		if p.EvalTime < fastest {
			fastest = p.EvalTime
		}
		if p.EvalTime > slowest {
			slowest = p.EvalTime
		}
	}
	if fastest > 0 {
		res.SpreadFactor = float64(slowest) / float64(fastest)
	}
	est := make([]float64, len(res.Points))
	act := make([]float64, len(res.Points))
	for i, p := range res.Points {
		est[i] = p.EstCost
		act[i] = float64(p.EvalTime)
	}
	res.RankCorrelation = spearman(est, act)

	// GCov's rank by actual time.
	order := make([]int, len(res.Points))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return res.Points[order[a]].EvalTime < res.Points[order[b]].EvalTime
	})
	for rank, idx := range order {
		if res.Points[idx].GCov {
			res.GCovRank = rank + 1
			break
		}
	}

	// Table: ten fastest and five slowest covers.
	res.Table.Header = []string{"cover", "est. cost", "eval", "answers", ""}
	addPoint := func(idx int) {
		p := res.Points[idx]
		mark := ""
		if p.GCov {
			mark = "← GCov"
		}
		res.Table.Add(p.Cover, p.EstCost, p.EvalTime, p.Answers, mark)
	}
	show := 10
	if show > len(order) {
		show = len(order)
	}
	for i := 0; i < show; i++ {
		addPoint(order[i])
	}
	if len(order) > show+5 {
		res.Table.Add("…", "", "", "", "")
	}
	for i := len(order) - 5; i >= 0 && i < len(order); i++ {
		if i < show {
			continue
		}
		addPoint(order[i])
	}
	return res, nil
}

// spearman computes Spearman's rank correlation of two equal-length
// samples (average ranks for ties).
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	if n < 2 {
		return 0
	}
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var num, da, db float64
	for i := range ra {
		x, y := ra[i]-ma, rb[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// ranks assigns average ranks (1-based) to the sample.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

// String renders the report.
func (r *E7Result) String() string {
	var sb strings.Builder
	sb.WriteString("E7 — cover-space sweep (cost model validation, [5] via §2)\n")
	fmt.Fprintf(&sb, "covers evaluated: %d; eval-time spread: %.0fx; Spearman(est, actual) = %.2f; GCov pick ranks #%d by actual time\n",
		len(r.Points), r.SpreadFactor, r.RankCorrelation, r.GCovRank)
	sb.WriteString(r.Table.String())
	return sb.String()
}
