package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/lubm"
)

// E1Result reproduces §4 Example 1: reformulation sizes and evaluation
// outcomes for UCQ, SCQ, the paper's hand-picked cover q” and GCov.
type E1Result struct {
	University string
	Combos     int
	PerAtom    []int
	Runs       []Run
	GCovCover  string
	Table      Table
}

// E1 runs Example 1.
func E1(cfg Config) (*E1Result, error) {
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
	// The engine's first use — store, statistics, G∞, reformulators — is
	// paid here, not by whichever strategy runs first.
	e.Warm()
	res := &E1Result{University: univ}
	res.Combos, res.PerAtom = e.Reformulator().CombinationCount(q)

	type entry struct {
		name string
		s    engine.Strategy
	}
	strategies := []entry{
		{name: "Ref-SCQ (fixed, [15])", s: engine.RefSCQ},
		{name: "Ref-JUCQ q'' (paper cover)", s: engine.RefJUCQ},
		{name: "Ref-GCov (cost-based)", s: engine.RefGCov},
		{name: "Sat (pre-saturated)", s: engine.Sat},
	}
	if cfg.IncludeUCQ {
		strategies = append([]entry{{name: "Ref-UCQ (fixed, [9])", s: engine.RefUCQ}}, strategies...)
	}

	res.Table.Header = []string{"strategy", "#CQs", "prep", "eval (median)", "eval spread", "phases", "answers", "note"}
	for _, st := range strategies {
		qh := queryHolder{cq: q}
		if st.s == engine.RefJUCQ {
			qh.cover = lubm.ExampleOneCover()
		}
		run := repeatStrategy(e, qh, st.s, cfg.Timeout)
		run.Strategy = engine.Strategy(st.name)
		res.Runs = append(res.Runs, run)
		note := ""
		switch st.s {
		case engine.RefUCQ:
			note = "paper: 318,096 CQs, unparseable"
		case engine.RefJUCQ:
			note = "cover " + lubm.ExampleOneCover().String()
		case engine.RefGCov:
			//reflint:ctxbg experiment driver: nothing upstream cancels it, cfg.Timeout bounds each evaluation
			if a, err := e.AnswerContext(context.Background(), q, engine.RefGCov); err == nil {
				res.GCovCover = a.Cover.String()
				note = "cover " + res.GCovCover
			}
		}
		if run.Err != nil {
			res.Table.Add(st.name, "-", "-", "-", "-", "-", "-", "INFEASIBLE: "+truncate(run.Err.Error(), 60))
			continue
		}
		spread := formatDuration(slices.Min(run.EvalRuns)) + "–" + formatDuration(slices.Max(run.EvalRuns))
		res.Table.Add(st.name, run.CQs, run.Prep, run.Eval, spread, FormatPhases(run.Phases), run.Rows, note)
	}
	return res, nil
}

// e1Evals is how many evaluations of a strategy E1 takes the median of: an
// evaluation of Example 1 takes about a millisecond at LUBM(1), where one
// sample's noise is as large as the gap between GCov and SCQ.
const e1Evals = 7

// e1Repeated bounds the evaluations E1 repeats: one that takes longer (the
// UCQ's, seconds long) is far outside the noise, and is taken once.
const e1Repeated = 100 * time.Millisecond

// repeatStrategy answers q with s once, for the plan — the run's prep and
// phases — and then e1Evals times more, the plan out of the cache: Eval is
// the median evaluation time, EvalRuns every one of them.
func repeatStrategy(e *engine.Engine, q queryHolder, s engine.Strategy, timeout time.Duration) Run {
	run := runStrategy(e, q, s, timeout)
	if run.Err != nil || run.Eval > e1Repeated {
		run.EvalRuns = []time.Duration{run.Eval}
		return run
	}
	for i := 0; i < e1Evals; i++ {
		r := runStrategy(e, q, s, timeout)
		if r.Err != nil {
			return r
		}
		run.EvalRuns = append(run.EvalRuns, r.Eval)
	}
	sorted := slices.Clone(run.EvalRuns)
	slices.Sort(sorted)
	run.Eval = sorted[len(sorted)/2]
	return run
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// String renders the experiment report.
func (r *E1Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E1 — Example 1 (§4), university %s\n", r.University)
	fmt.Fprintf(&sb, "UCQ reformulation size: %d CQs (per atom: %v; paper: 318,096 = 188·188·9)\n",
		r.Combos, r.PerAtom)
	sb.WriteString(r.Table.String())
	return sb.String()
}
