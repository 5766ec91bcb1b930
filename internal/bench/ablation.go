package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/query"
)

// AblationResult quantifies the repository's own design choices on
// Example 1 (the design-choice benches DESIGN.md calls out):
//
//   - join method: the GCov-selected JUCQ evaluated with the default
//     INLJ/hash mix vs. hash joins only;
//   - cover search: GCov's greedy pick vs. the exhaustive partition-space
//     optimum (estimated cost, search time, evaluation time);
//   - UCQ minimization: the members a mid-size reformulation runs as once
//     minimized and merged (query.UCQ.Merged).
type AblationResult struct {
	Table Table
}

// Ablation runs the design-choice comparison.
func Ablation(cfg Config) (*AblationResult, error) {
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
	res := &AblationResult{}
	res.Table.Header = []string{"ablation", "variant", "time", "note"}

	// 1. Join method on the GCov cover.
	gres, err := core.GCov(e.Reformulator(), e.CostModel(), q, core.GCovOptions{})
	if err != nil {
		return nil, err
	}
	// With the cover's estimates the fragment joins follow the plan rule and
	// probe fragments; forced, every fragment is materialized.
	plans := make([]exec.FragmentPlan, len(gres.Estimates))
	for i, est := range gres.Estimates {
		plans[i].Est = est
	}
	timeEval := func(force bool) (time.Duration, int, error) {
		ev := exec.New(e.Store(), e.Stats())
		ev.ForceHashJoins, ev.Fragments = force, plans
		ev.Budget = exec.Budget{Timeout: cfg.Timeout}
		start := time.Now()
		rows, err := ev.EvalJUCQContext(ctx, gres.JUCQ)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), rows.Len(), nil
	}
	tDef, nDef, err := timeEval(false)
	if err != nil {
		return nil, err
	}
	tHash, nHash, err := timeEval(true)
	if err != nil {
		return nil, err
	}
	if nDef != nHash {
		return nil, fmt.Errorf("bench: join ablation changed answers: %d vs %d", nDef, nHash)
	}
	res.Table.Add("join method", "INLJ + hash (default)", tDef, fmt.Sprintf("%d answers", nDef))
	res.Table.Add("join method", "hash joins only", tHash,
		fmt.Sprintf("%.1fx slower", float64(tHash)/float64(maxDur(tDef, time.Nanosecond))))

	// 2. Cover search: greedy vs exhaustive.
	start := time.Now()
	gres2, err := core.GCov(e.Reformulator(), e.CostModel(), q, core.GCovOptions{})
	if err != nil {
		return nil, err
	}
	tGreedy := time.Since(start)
	start = time.Now()
	eres, err := core.ExhaustiveCov(e.Reformulator(), e.CostModel(), q, core.GCovOptions{})
	if err != nil {
		return nil, err
	}
	tExh := time.Since(start)
	res.Table.Add("cover search", "GCov (greedy)", tGreedy,
		fmt.Sprintf("cover %v, est. cost %.0f, %d covers explored", gres2.Cover, gres2.Cost, len(gres2.Explored)))
	res.Table.Add("cover search", "exhaustive partitions", tExh,
		fmt.Sprintf("cover %v, est. cost %.0f, %d covers explored", eres.Cover, eres.Cost, len(eres.Explored)))

	// 3. UCQ minimization (CQ cores and subsumption pruning, then the merge
	// a fragment's members get) on the 145-CQ reformulation of the open type
	// atom (Example 1's t1 alone).
	qT1, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ub": lubm.NS},
		`q(x, u) :- x rdf:type u`)
	if err != nil {
		return nil, err
	}
	u := e.Reformulator().ReformulateCQ(qT1)
	start = time.Now()
	members := u.Merged()
	tMin := time.Since(start)
	res.Table.Add("UCQ minimization", "cores, subsumption, merge", tMin,
		fmt.Sprintf("%d members run as %d", len(u.CQs), len(members)))
	return res, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// String renders the report.
func (r *AblationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — design-choice comparisons on Example 1\n")
	sb.WriteString(r.Table.String())
	return sb.String()
}
