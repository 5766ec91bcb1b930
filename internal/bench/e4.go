package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/trace"
)

// E4Result reproduces demo step 3: introspection of one answering run —
// the chosen plan's operator trace, estimated vs. actual cardinalities and
// costs of the (sub)queries, and GCov's explored cover space.
type E4Result struct {
	Query string
	// PosedCQs and ReducedCQs size the query's UCQ reformulation before and
	// after the schema reduction; Implied counts the atoms it drops.
	PosedCQs, ReducedCQs, Implied int
	Explored                      []core.Explored
	Fragments                     Table // per-fragment estimated vs actual cardinality
	Operators                     Table // operator-level trace of the winning JUCQ evaluation
	FinalCover                    string
}

// E4 introspects Example 1 under GCov.
func E4(cfg Config) (*E4Result, error) {
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
	res := &E4Result{Query: query.FormatCQ(g.Dict(), q)}
	rq, implied := e.Reformulator().Reduce(q)
	res.PosedCQs, _ = e.Reformulator().CombinationCount(q)
	res.ReducedCQs, _ = e.Reformulator().CombinationCount(rq)
	res.Implied = len(implied)

	gres, err := core.GCov(e.Reformulator(), e.CostModel(), q, core.GCovOptions{})
	if err != nil {
		return nil, err
	}
	res.Explored = gres.Explored
	res.FinalCover = gres.Cover.String()

	// Estimated vs actual per fragment.
	res.Fragments.Header = []string{"fragment", "#CQs", "est. card", "actual card", "est. cost"}
	ev := exec.New(e.Store(), e.Stats())
	m := e.CostModel()
	for _, f := range gres.JUCQ.Fragments {
		est := m.UCQ(f.UCQ)
		actual, err := ev.EvalUCQContext(ctx, f.UCQ)
		if err != nil {
			return nil, err
		}
		res.Fragments.Add(query.Cover{f.AtomIndexes}.String(), len(f.UCQ.CQs),
			est.Card, actual.Len(), est.Cost)
	}

	// Operator trace of the full JUCQ evaluation, by the plan rule over the
	// estimates the search priced the fragments at.
	root := trace.New(0).StartSpan("eval")
	defer root.End()
	tev := exec.New(e.Store(), e.Stats())
	tev.Span = root
	tev.Fragments = make([]exec.FragmentPlan, len(gres.Estimates))
	for i, est := range gres.Estimates {
		tev.Fragments[i].Est = est
	}
	if _, err := tev.EvalJUCQContext(ctx, gres.JUCQ); err != nil {
		return nil, err
	}
	res.Operators.Header = []string{"operator", "left rows", "seed rows", "right rows", "out rows"}
	// Only the fragment-level joins, the eval span's own children; the
	// per-CQ operators nested inside fragment UCQs would drown the table.
	// A semijoin's right rows are its fragment's, reduced by the seed.
	for _, op := range trace.ToJSON(root).Children {
		if on, ok := op.Attrs["on"]; ok {
			seed := any("-")
			if n, ok := op.Attrs["seed_rows"]; ok {
				seed = n
			}
			res.Operators.Add(fmt.Sprintf("%s on %s", op.Name, on),
				op.Attrs["left_rows"], seed, op.Attrs["right_rows"], op.Attrs["rows"])
		}
	}
	return res, nil
}

// String renders the report.
func (r *E4Result) String() string {
	var sb strings.Builder
	sb.WriteString("E4 — plan and cost introspection (demo step 3)\n")
	fmt.Fprintf(&sb, "query: %s\n", r.Query)
	fmt.Fprintf(&sb, "UCQ reformulation size: posed %d → reduced %d (%d atoms implied by the rest of the query)\n",
		r.PosedCQs, r.ReducedCQs, r.Implied)
	fmt.Fprintf(&sb, "\nGCov explored cover space (%d covers):\n", len(r.Explored))
	sb.WriteString(core.FormatExplored(r.Explored))
	fmt.Fprintf(&sb, "final cover: %s\n", r.FinalCover)
	sb.WriteString("\nper-fragment estimated vs actual:\n")
	sb.WriteString(indent(r.Fragments.String()))
	sb.WriteString("\noperator trace (fragment joins):\n")
	sb.WriteString(indent(r.Operators.String()))
	return sb.String()
}
