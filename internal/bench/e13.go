package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
)

// E13Result is the shard scaling curve: cold query latency at 1/2/4/8
// shards on the paper's Example 1 and LUBM Q9, per strategy, with the
// per-strategy speedup over the unsharded baseline and an answer-identity
// check across every (strategy, shard count) cell. "Cold" means a fresh
// engine per repetition — empty plan cache, cold reformulators — but with
// the scan source (the sharded store at N ≥ 2) built before the clock
// starts, mirroring a serving process that partitions at boot and then
// answers.
type E13Result struct {
	University string     `json:"university"`
	Queries    []E13Query `json:"queries"`
	Reps       int        `json:"reps"`
	// GOMAXPROCS is the scatter's worker ceiling the curve was measured
	// with: at 4 shards, fewer than 4 cannot run every shard at once.
	GOMAXPROCS int   `json:"gomaxprocs"`
	Table      Table `json:"-"`
}

// E13Query is one query's scaling curve.
type E13Query struct {
	Name string   `json:"name"`
	Runs []E13Run `json:"runs"`
}

// E13Run is one (strategy, shard count) cell.
type E13Run struct {
	Strategy string        `json:"strategy"`
	Shards   int           `json:"shards"`
	Rows     int           `json:"rows"`
	ColdP50  time.Duration `json:"coldP50Nanos"`
	// Speedup is ColdP50(1 shard) / ColdP50(this cell) for the same
	// strategy and query (1.0 for the baseline itself).
	Speedup float64 `json:"speedup"`
	// Identical reports the row set matches the query's unsharded
	// ref-range answer byte for byte.
	Identical bool   `json:"identical"`
	Error     string `json:"error,omitempty"`
}

// e13Reps is the number of cold repetitions per cell.
const e13Reps = 5

// e13ShardCounts is the scaling axis.
var e13ShardCounts = []int{1, 2, 4, 8}

// E13 runs the shard scaling curve.
func E13(cfg Config) (*E13Result, error) {
	cfg = cfg.withDefaults()
	g, err := lubm.NewGraph(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	univ := lubm.PickExampleOneUniversity(g)
	if univ == "" {
		univ = "http://www.University0.edu"
	}
	ex1, err := lubm.ExampleOne(g.Dict(), univ)
	if err != nil {
		return nil, err
	}
	parsed, err := lubm.ParseQueries(g.Dict(), 0, 0)
	if err != nil {
		return nil, err
	}
	var q9 query.CQ
	for _, pq := range parsed {
		if pq.Name == "Q9" {
			q9 = pq.CQ
		}
	}

	type namedQuery struct {
		name string
		cq   query.CQ
	}
	queries := []namedQuery{{"Example 1", ex1}, {"LUBM Q9", q9}}
	strategies := []engine.Strategy{engine.RefRange, engine.RefGCov, engine.RefSCQ}

	res := &E13Result{University: univ, Reps: e13Reps, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	res.Table.Header = []string{"query", "strategy", "shards", "cold p50", "speedup", "answers", "identical"}
	for _, nq := range queries {
		eq := E13Query{Name: nq.name}
		// The identity reference is the unsharded ref-range answer.
		var reference string
		baselines := map[engine.Strategy]time.Duration{}
		for _, n := range e13ShardCounts {
			for _, s := range strategies {
				run := E13Run{Strategy: string(s), Shards: n}
				var times []time.Duration
				var canon string
				var rows int
				for rep := 0; rep < e13Reps; rep++ {
					// Fresh engine per repetition: cold plan cache, cold
					// reformulators. Building the (sharded) store and
					// collecting statistics — global and per-shard — is
					// boot work, so it happens before the clock starts.
					e := engine.New(g)
					e.EnableSharding(n)
					e.Stats()
					if n > 1 {
						for i := range n {
							e.Store().ShardStats(i)
						}
					}
					e.Budget.Timeout = cfg.Timeout
					start := time.Now()
					//reflint:ctxbg experiment driver: nothing upstream cancels it, cfg.Timeout bounds each evaluation
					ans, err := e.AnswerContext(context.Background(), nq.cq, s)
					if err != nil {
						run.Error = err.Error()
						break
					}
					times = append(times, time.Since(start))
					canon, rows = canonicalRows(ans.Rows), ans.Rows.Len()
				}
				if run.Error != "" {
					eq.Runs = append(eq.Runs, run)
					res.Table.Add(nq.name, run.Strategy, n, "-", "-", "-", "INFEASIBLE: "+truncate(run.Error, 40))
					continue
				}
				run.Rows = rows
				run.ColdP50 = p50(times)
				if reference == "" {
					reference = canon
				}
				run.Identical = canon == reference
				if n == 1 {
					baselines[s] = run.ColdP50
				}
				if base := baselines[s]; base > 0 && run.ColdP50 > 0 {
					run.Speedup = float64(base) / float64(run.ColdP50)
				}
				eq.Runs = append(eq.Runs, run)
				res.Table.Add(nq.name, run.Strategy, n, run.ColdP50,
					fmt.Sprintf("%.2fx", run.Speedup), run.Rows, run.Identical)
			}
		}
		res.Queries = append(res.Queries, eq)
	}
	return res, nil
}

// String renders the experiment report.
func (r *E13Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E13 — shard scaling: scatter-gather at 1/2/4/8 shards, university %s\n", r.University)
	fmt.Fprintf(&sb, "cold p50 over %d repetitions, fresh engine each, store built before the clock, GOMAXPROCS=%d\n", r.Reps, r.GOMAXPROCS)
	fmt.Fprintf(&sb, "(speedup = unsharded p50 / sharded p50, same strategy; identical = row set matches unsharded ref-range)\n")
	sb.WriteString(r.Table.String())
	return sb.String()
}
