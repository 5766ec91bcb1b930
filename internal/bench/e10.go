package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lubm"
)

// E10Result is the Example-1 head-to-head of the interval-encoded range
// strategy against the union-based strategies: cold-cache latencies (fresh
// engine per repetition, so stores and statistics rebuild every time) and
// an answer-identity check against ref-range for every strategy that
// completes.
type E10Result struct {
	University string
	// Combos is the UCQ reformulation size ref-range avoids.
	Combos int
	// RangeCQs and RangeAtoms describe the ref-range reformulation.
	RangeCQs   int
	RangeAtoms int
	Reps       int
	Runs       []E10Run
	Table      Table
}

// E10Run is one strategy's aggregate over the repetitions.
type E10Run struct {
	Strategy string        `json:"strategy"`
	CQs      int           `json:"cqs,omitempty"`
	Rows     int           `json:"rows"`
	ColdP50  time.Duration `json:"coldP50Nanos"`
	// Identical reports the answers matched ref-range's row set exactly.
	Identical bool   `json:"identical"`
	Error     string `json:"error,omitempty"`
}

// e10Reps is the number of cold repetitions per strategy.
const e10Reps = 5

// E10 runs the Example-1 head-to-head.
func E10(cfg Config) (*E10Result, error) {
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
	res := &E10Result{University: univ, Reps: e10Reps}
	{
		e := engine.New(g)
		res.Combos, _ = e.Reformulator().CombinationCount(q)
		ru := e.RangeReformulator().Reformulate(q)
		res.RangeCQs = len(ru.CQs)
		res.RangeAtoms = ru.RangeAtoms()
	}

	type entry struct {
		name string
		s    engine.Strategy
	}
	strategies := []entry{
		{name: "Ref-Range (interval)", s: engine.RefRange},
		{name: "Ref-SCQ (fixed, [15])", s: engine.RefSCQ},
		{name: "Ref-JUCQ q'' (paper cover)", s: engine.RefJUCQ},
		{name: "Ref-GCov (cost-based)", s: engine.RefGCov},
		{name: "Sat (pre-saturated)", s: engine.Sat},
	}
	if cfg.IncludeUCQ {
		strategies = append(strategies, entry{name: "Ref-UCQ (fixed, [9])", s: engine.RefUCQ})
	}

	var reference string
	res.Table.Header = []string{"strategy", "#CQs", "cold p50", "answers", "identical"}
	for _, st := range strategies {
		qh := queryHolder{cq: q}
		if st.s == engine.RefJUCQ {
			qh.cover = lubm.ExampleOneCover()
		}
		var (
			times []time.Duration
			rows  *exec.Relation
			cqs   int
			run   = E10Run{Strategy: st.name}
		)
		for rep := 0; rep < e10Reps; rep++ {
			// A fresh engine per repetition keeps every run cold: the
			// store, statistics and reformulators rebuild from scratch.
			e := engine.New(g)
			e.Budget.Timeout = cfg.Timeout
			start := time.Now()
			var ans *engine.Answer
			//reflint:ctxbg experiment driver: nothing upstream cancels it, cfg.Timeout bounds each evaluation
			ctx := context.Background()
			if st.s == engine.RefJUCQ {
				ans, err = e.AnswerWithCoverContext(ctx, qh.cq, qh.cover)
			} else {
				ans, err = e.AnswerContext(ctx, qh.cq, st.s)
			}
			if err != nil {
				run.Error = err.Error()
				break
			}
			times = append(times, time.Since(start))
			rows, cqs = ans.Rows, ans.ReformulationCQs
		}
		if run.Error != "" {
			res.Runs = append(res.Runs, run)
			res.Table.Add(st.name, "-", "-", "-", "INFEASIBLE: "+truncate(run.Error, 50))
			continue
		}
		run.CQs = cqs
		run.Rows = rows.Len()
		run.ColdP50 = p50(times)
		canon := canonicalRows(rows)
		if reference == "" {
			reference = canon // first strategy (ref-range) is the reference
			run.Identical = true
		} else {
			run.Identical = canon == reference
		}
		res.Runs = append(res.Runs, run)
		res.Table.Add(st.name, run.CQs, run.ColdP50, run.Rows, run.Identical)
	}
	return res, nil
}

// p50 returns the median duration.
func p50(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// canonicalRows renders a relation's row set order-insensitively so two
// strategies' answers can be compared byte for byte.
func canonicalRows(r *exec.Relation) string {
	lines := make([]string, 0, r.Len())
	for i := 0; i < r.Len(); i++ {
		lines = append(lines, fmt.Sprint(r.Row(i)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// String renders the experiment report.
func (r *E10Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E10 — Example 1 head-to-head: interval ranges vs unions, university %s\n", r.University)
	fmt.Fprintf(&sb, "ref-ucq would enumerate %d CQs; ref-range reformulates to %d range CQs (%d range atoms)\n",
		r.Combos, r.RangeCQs, r.RangeAtoms)
	fmt.Fprintf(&sb, "cold p50 over %d repetitions, fresh engine each (identical = row set matches ref-range)\n", r.Reps)
	sb.WriteString(r.Table.String())
	return sb.String()
}
