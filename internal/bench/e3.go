package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
)

// E3Result reproduces demo step 2: answering a workload through every
// system/strategy, comparing runtime AND completeness (answer counts).
// Complete strategies must agree; the incomplete fixed Ref of native RDF
// platforms may return fewer answers.
type E3Result struct {
	Rows  []E3Row
	Table Table
}

// E3Row is one (scenario, query, strategy) measurement.
type E3Row struct {
	Scenario string
	Query    string
	Run      Run
	Complete bool // answers equal to Sat's
	// PosedCQs and ReducedCQs size the query's UCQ reformulation under the
	// strategy's rules, before and after the schema reduction drops the
	// atoms the rest of the query implies (equal for datalog, which keeps
	// the posed query).
	PosedCQs, ReducedCQs int
}

// E3 runs the cross-system comparison over the LUBM queries and the three
// synthetic scenarios' workloads.
func E3(cfg Config) (*E3Result, error) {
	cfg = cfg.withDefaults()
	res := &E3Result{}
	res.Table.Header = []string{"scenario", "query", "strategy", "UCQ posed → reduced", "eval", "answers", "complete"}

	strategies := []engine.Strategy{engine.Sat, engine.RefSCQ, engine.RefGCov, engine.RefIncomplete, engine.Dat}
	if cfg.IncludeUCQ {
		strategies = append(strategies, engine.RefUCQ)
	}

	run := func(scenario, name string, e *engine.Engine, q queryHolder) error {
		sat := runStrategy(e, q, engine.Sat, cfg.Timeout)
		if sat.Err != nil {
			return fmt.Errorf("bench: %s/%s sat failed: %w", scenario, name, sat.Err)
		}
		for _, s := range strategies {
			r := runStrategy(e, q, s, cfg.Timeout)
			complete := r.Err == nil && r.Rows == sat.Rows
			posed, reduced := ucqSizes(e, q.cq, s)
			res.Rows = append(res.Rows, E3Row{Scenario: scenario, Query: name, Run: r, Complete: complete,
				PosedCQs: posed, ReducedCQs: reduced})
			size := fmt.Sprintf("%d → %d", posed, reduced)
			if r.Err != nil {
				res.Table.Add(scenario, name, string(s), size, "-", "-", "INFEASIBLE")
				continue
			}
			res.Table.Add(scenario, name, string(s), size, r.Eval, r.Rows, fmt.Sprint(complete))
		}
		return nil
	}

	// LUBM workload.
	lg, err := lubm.NewGraph(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	le := engine.New(lg)
	qs, err := lubm.ParseQueries(lg.Dict(), 0, 0)
	if err != nil {
		return nil, err
	}
	for _, pq := range qs {
		if err := run("lubm", pq.Name, le, queryHolder{cq: pq.CQ}); err != nil {
			return nil, err
		}
	}
	if univ := lubm.PickExampleOneUniversity(lg); univ != "" {
		q1, err := lubm.ExampleOne(lg.Dict(), univ)
		if err != nil {
			return nil, err
		}
		if err := run("lubm", "Ex1", le, queryHolder{cq: q1}); err != nil {
			return nil, err
		}
	}

	// Synthetic scenarios.
	scs, err := datasets.All(datasets.Base, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, sc := range scs {
		e := engine.New(sc.Graph)
		queries, err := sc.Queries()
		if err != nil {
			return nil, err
		}
		for i, q := range queries {
			if err := run(sc.Name, fmt.Sprintf("q%d", i+1), e, queryHolder{cq: q}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// ucqSizes returns the size of q's UCQ reformulation — per-atom
// combinations — as posed and as the strategy reduces it: under
// subClassOf/subPropertyOf only for ref-incomplete, not at all for datalog.
func ucqSizes(e *engine.Engine, q query.CQ, s engine.Strategy) (posed, reduced int) {
	r := e.Reformulator()
	if s == engine.RefIncomplete {
		r = core.NewIncompleteReformulator(e.Graph().Schema())
	}
	posed, _ = r.CombinationCount(q)
	if s == engine.Dat {
		return posed, posed
	}
	rq, _ := r.Reduce(q)
	reduced, _ = r.CombinationCount(rq)
	return posed, reduced
}

// IncompleteGaps returns the (scenario, query) pairs where the incomplete
// strategy lost answers — the demo's completeness dimension.
func (r *E3Result) IncompleteGaps() []string {
	var out []string
	for _, row := range r.Rows {
		if row.Run.Strategy == engine.RefIncomplete && row.Run.Err == nil && !row.Complete {
			out = append(out, row.Scenario+"/"+row.Query)
		}
	}
	return out
}

// String renders the report.
func (r *E3Result) String() string {
	var sb strings.Builder
	sb.WriteString("E3 — cross-system comparison (demo step 2): runtime and completeness\n")
	sb.WriteString(r.Table.String())
	gaps := r.IncompleteGaps()
	fmt.Fprintf(&sb, "\nqueries where the fixed incomplete Ref (Virtuoso/AllegroGraph-style) loses answers: %d\n", len(gaps))
	for _, g := range gaps {
		sb.WriteString("  " + g + "\n")
	}
	return sb.String()
}
