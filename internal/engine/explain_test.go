package engine

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/lubm"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// exampleOneEngine builds a Mini-scale LUBM engine and the paper's
// Example 1 query — the fixture the EXPLAIN golden tests render.
func exampleOneEngine(t *testing.T) (*Engine, query.CQ) {
	t.Helper()
	g, err := lubm.NewGraph(lubm.Mini(), 42)
	if err != nil {
		t.Fatal(err)
	}
	univ := lubm.PickExampleOneUniversity(g)
	if univ == "" {
		univ = "http://www.University0.edu"
	}
	q, err := lubm.ExampleOne(g.Dict(), univ)
	if err != nil {
		t.Fatal(err)
	}
	return New(g), q
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./internal/engine/ -run Explain -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("explain output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// The Explain renderer's output over Example 1 is pinned by golden files
// for the three plan shapes the paper compares — the plain UCQ (huge union,
// elided), the SCQ (singleton cover), and the cost-chosen JUCQ plus the
// paper's hand-picked cover — and for the two single-union shapes beside
// them: the range reformulation and the plain query on G∞.
func TestExplainGolden(t *testing.T) {
	e, q := exampleOneEngine(t)
	cases := []struct {
		golden string
		plan   func() (*Plan, error)
	}{
		{"explain_ucq.golden", func() (*Plan, error) { return e.Plan(q, RefUCQ) }},
		{"explain_scq.golden", func() (*Plan, error) { return e.Plan(q, RefSCQ) }},
		{"explain_gcov.golden", func() (*Plan, error) { return e.Plan(q, RefGCov) }},
		{"explain_jucq_paper.golden", func() (*Plan, error) {
			return e.PlanWithCover(q, lubm.ExampleOneCover())
		}},
		{"explain_range.golden", func() (*Plan, error) { return e.Plan(q, RefRange) }},
		{"explain_sat.golden", func() (*Plan, error) { return e.Plan(q, Sat) }},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			p, err := c.plan()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.golden, p.Explain())
		})
	}
}

func TestExplainMetadata(t *testing.T) {
	e, q := exampleOneEngine(t)
	p, err := e.Plan(q, RefUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReformulationCQs < 1000 {
		t.Fatalf("Example 1 UCQ must be huge, got %d CQs", p.ReformulationCQs)
	}
	if p.Tree().Find("union") == nil || p.Tree().Find("elided") == nil {
		t.Fatal("UCQ plan must summarize the union with an elision node")
	}
	p, err = e.Plan(q, RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if p.CachedPlan {
		t.Fatal("first GCov plan cannot be cached")
	}
	if p.EstimatedCost <= 0 || len(p.Cover) == 0 {
		t.Fatalf("GCov plan missing estimate or cover: %+v", p)
	}
	p2, err := e.Plan(q, RefGCov)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CachedPlan {
		t.Fatal("second GCov plan must come from the plan cache")
	}
	if _, err := e.Plan(q, RefJUCQ); err == nil {
		t.Fatal("Plan(RefJUCQ) must demand a cover")
	}
}

// EXPLAIN ANALYZE semantics, over every strategy, sharded and not: answering
// with a Tracer set must produce a span tree where every executor operator
// carries the estimated cardinality next to the actual row count — and
// EXPLAIN must describe that very execution: Plan and Answer for the same
// query on the same version agree on strategy, cover, reformulation size and
// estimate, and the plan's fragment nodes are the trace's, in the same order:
// both take the fragments by their estimates. (Which operator joins each
// fragment, and the order of a CQ's atoms, are compared by
// TestPlanOrderIsTraceOrder.)
func TestAnswerTraceEstimatesAndActuals(t *testing.T) {
	cases := []struct {
		s     Strategy
		cover query.Cover
		scans bool // unsharded, the trace holds plain "scan" operators
	}{
		{s: Sat, scans: true},
		{s: RefUCQ, scans: true},
		{s: RefSCQ, scans: true},
		{s: RefJUCQ, cover: query.Cover{{0, 1}, {2}}, scans: true},
		{s: RefGCov, scans: true},
		{s: RefRange},
		{s: RefIncomplete, scans: true},
		{s: Dat},
	}
	for _, shards := range []int{1, 4} {
		e, g := mustEngine(t)
		e.EnableSharding(shards)
		q := mustQuery(t, g, `q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3, x1 x4 "1949"`)
		for _, c := range cases {
			name := fmt.Sprintf("%s/shards=%d", c.s, shards)
			e.Tracer = trace.New(0)
			e.Metrics = metrics.NewRegistry()
			var (
				plan *Plan
				ans  *Answer
				err  error
			)
			if c.cover != nil {
				plan, err = e.PlanWithCover(q, c.cover)
			} else {
				plan, err = e.Plan(q, c.s)
			}
			if err != nil {
				t.Fatalf("%s: plan: %v", name, err)
			}
			if c.cover != nil {
				ans, err = e.AnswerWithCoverContext(context.Background(), q, c.cover)
			} else {
				ans, err = e.AnswerContext(context.Background(), q, c.s)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			root := trace.ToJSON(e.Tracer.Root())
			if root == nil || root.Name != "answer" {
				t.Fatalf("%s: missing answer span", name)
			}
			if got := root.Attrs["rows"].(int64); int(got) != ans.Rows.Len() {
				t.Fatalf("%s: root rows %v != %d", name, got, ans.Rows.Len())
			}
			if root.Find("eval") == nil {
				t.Fatalf("%s: missing eval span", name)
			}
			if c.scans && shards == 1 {
				scan := root.Find("scan")
				if scan == nil {
					t.Fatalf("%s: no scan operator traced", name)
				}
				if _, ok := scan.Attrs["est_rows"]; !ok {
					t.Fatalf("%s: scan missing est_rows: %+v", name, scan.Attrs)
				}
				if _, ok := scan.Attrs["rows"]; !ok {
					t.Fatalf("%s: scan missing rows: %+v", name, scan.Attrs)
				}
			}
			if plan.Strategy != ans.Strategy || plan.Cover.String() != ans.Cover.String() ||
				plan.ReformulationCQs != ans.ReformulationCQs || plan.EstimatedCost != ans.EstimatedCost {
				t.Fatalf("%s: EXPLAIN says (%s, %s, %d CQs, cost %v), the execution (%s, %s, %d CQs, cost %v)", name,
					plan.Strategy, plan.Cover, plan.ReformulationCQs, plan.EstimatedCost,
					ans.Strategy, ans.Cover, ans.ReformulationCQs, ans.EstimatedCost)
			}
			if got, want := fragmentNodes(root), fragmentNodes(plan.Tree()); !slices.Equal(got, want) {
				t.Fatalf("%s: traced fragments %v, EXPLAIN fragments %v", name, got, want)
			}
			// A cq node's rows are the rows its member offers its union,
			// duplicates included — what exec.rows_unioned counts — and a
			// union keeps each of them once.
			offered := int64(0)
			walk(root, func(n *trace.SpanJSON) {
				if n.Name == "cq" {
					offered += n.Attrs["rows"].(int64)
				}
				if n.Name == "union" && len(n.Children) > 0 && n.Children[0].Name == "cq" {
					members := int64(0)
					for _, c := range n.Children {
						members += c.Attrs["rows"].(int64)
					}
					if n.Attrs["rows"].(int64) > members {
						t.Fatalf("%s: a union of %v rows from members offering %d", name, n.Attrs["rows"], members)
					}
				}
			})
			if got := e.Metrics.Counter("exec.rows_unioned").Value(); got != offered {
				t.Fatalf("%s: exec.rows_unioned = %d, the cq nodes offered %d", name, got, offered)
			}
		}
	}
}

func walk(n *trace.SpanJSON, fn func(*trace.SpanJSON)) {
	fn(n)
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// fragmentNodes lists the "fragment" nodes of a span tree as "idx atoms",
// in the order the tree holds them.
func fragmentNodes(n *trace.SpanJSON) []string {
	var out []string
	if n.Name == "fragment" {
		out = append(out, fmt.Sprint(n.Attrs["idx"], " ", n.Attrs["atoms"]))
	}
	for _, c := range n.Children {
		out = append(out, fragmentNodes(c)...)
	}
	return out
}

func TestMisestimateCounterAndWarning(t *testing.T) {
	e, _ := mustEngine(t)
	e.Metrics = metrics.NewRegistry()
	tr := trace.New(0)
	sp := tr.StartSpan("answer")
	good := sp.Child("scan")
	good.SetFloat("est_rows", 10)
	good.SetInt("rows", 9)
	bad := sp.Child("hashjoin")
	bad.SetFloat("est_rows", 5000)
	bad.SetInt("rows", 3)
	sp.End()
	e.reportMisestimates(context.Background(), sp, RefGCov, true)
	if got := e.Metrics.Counter("cost.misestimate").Value(); got != 1 {
		t.Fatalf("cost.misestimate = %d, want 1", got)
	}
	// Under the 10x threshold nothing fires.
	e.reportMisestimates(context.Background(), tr.StartSpan("noop"), RefGCov, true)
	if got := e.Metrics.Counter("cost.misestimate").Value(); got != 1 {
		t.Fatalf("cost.misestimate moved to %d on a clean trace", got)
	}
}

// EXPLAIN ANALYZE says which set a union ran. At LUBM(1) the students are a
// one-column answer past the point where its set takes a bitmap: the span
// that owns the set — the union of the reformulated members, or under sat
// the lone CQ over G∞ — records distinct=bitmap. A union of two columns
// keeps its index and records nothing.
func TestAnalyzeShowsBitmapSets(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	parse := func(text string) query.CQ {
		q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ub": "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"}, text)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	students, members := parse(`q(x) :- x rdf:type ub:Student`), parse(`q(x, y) :- x ub:memberOf y`)
	for _, s := range []Strategy{RefUCQ, RefGCov, Sat} {
		for _, c := range []struct {
			q     query.CQ
			owner string // the span that records the bitmap; "": none does
		}{{students, "union"}, {members, ""}} {
			if s == Sat && c.owner != "" {
				c.owner = "cq"
			}
			e.Tracer = trace.New(0)
			if _, err := e.AnswerContext(context.Background(), c.q, s); err != nil {
				t.Fatal(err)
			}
			var owners []string
			e.Tracer.Root().Visit(func(name string, _ int, _ time.Duration, attrs []trace.Attr) {
				for _, a := range attrs {
					if a.Key == "distinct" && a.String() == "bitmap" {
						owners = append(owners, name)
					}
				}
			})
			text := trace.Render(e.Tracer.Root(), trace.RenderOptions{})
			if c.owner == "" && (len(owners) > 0 || strings.Contains(text, "distinct=")) {
				t.Errorf("%s, %d columns: %v record a bitmap:\n%s", s, len(c.q.Head), owners, text)
			}
			if c.owner != "" && (!slices.Equal(owners, []string{c.owner}) || !strings.Contains(text, "distinct=bitmap")) {
				t.Errorf("%s, %d column: %v record a bitmap, want one %s:\n%s", s, len(c.q.Head), owners, c.owner, text)
			}
		}
	}
	e.Tracer = nil
}

// EXPLAIN ANALYZE shows what a hash join's filter did: every hashjoin span
// records filtered=, the probe rows its filter turned away — no more than
// the probe side's rows — and a cross product records none. On LUBM Q9 at
// LUBM(1) most probes of the last joins match nothing, and the filter turns
// them away; plain EXPLAIN, which runs nothing, shows no filter.
func TestAnalyzeShowsFilteredProbes(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	var text string
	for _, nq := range lubm.QueryTexts(0, 0) {
		if nq.Name == "Q9" {
			text = nq.Text
		}
	}
	q, err := query.ParseRuleWithPrefixes(g.Dict(), map[string]string{"ub": lubm.NS}, text)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Sat, RefUCQ, RefGCov} {
		e.Tracer = trace.New(0)
		if _, err := e.AnswerContext(context.Background(), q, s); err != nil {
			t.Fatal(err)
		}
		joins, filtered := 0, int64(0)
		walk(trace.ToJSON(e.Tracer.Root()), func(n *trace.SpanJSON) {
			f, ok := n.Attrs["filtered"].(int64)
			switch {
			case n.Name == cost.OpCross && ok:
				t.Errorf("%s: a cross product records filtered=%d", s, f)
			case n.Name != cost.OpHashJoin:
			case !ok:
				t.Errorf("%s: a hashjoin records no filtered: %v", s, n.Attrs)
			case f < 0 || f > max(n.Attrs["left_rows"].(int64), n.Attrs["right_rows"].(int64)):
				t.Errorf("%s: a hashjoin's filter turned away %d probe rows: %v", s, f, n.Attrs)
			default:
				joins, filtered = joins+1, filtered+f
			}
		})
		if joins == 0 || filtered == 0 {
			t.Errorf("%s: %d hash joins, their filters turned away %d probe rows", s, joins, filtered)
		}
		plan, err := e.Plan(q, s)
		if err != nil {
			t.Fatal(err)
		}
		walk(plan.Tree(), func(n *trace.SpanJSON) {
			if _, ok := n.Attrs["filtered"]; ok {
				t.Errorf("%s: plain EXPLAIN shows a filter on %s", s, n.Name)
			}
		})
	}
	e.Tracer = nil
}

// A plan out of the cache misses the way it missed when it was made: the
// warning comes with the request that plans the shape, not with the cache
// hits after it, while cost.misestimate and the q-error histograms count
// every request.
func TestMisestimateWarnsOncePerPlan(t *testing.T) {
	g, err := lubm.NewGraph(lubm.Default(), 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	e.Metrics = metrics.NewRegistry()
	var log bytes.Buffer
	e.Logger = slog.New(slog.NewJSONHandler(&log, nil))
	ub := map[string]string{"ub": "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"}
	var perRequest int64
	for i, dept := range []string{"Department0.University0", "Department0.University0", "Department1.University0"} {
		q, err := query.ParseRuleWithPrefixes(g.Dict(), ub, "q(x, n) :- x rdf:type ub:Professor, x ub:worksFor <http://www."+dept+".edu>, x ub:name n")
		if err != nil {
			t.Fatal(err)
		}
		// The HTTP layer's root span names the request.
		e.Tracer = trace.New(0)
		root := e.Tracer.StartSpan("query")
		root.SetStr("requestId", fmt.Sprint("r", i))
		ans, err := e.AnswerContext(context.Background(), q, RefGCov)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if ans.CachedPlan != (i > 0) {
			t.Fatalf("request %d: cached plan %v", i, ans.CachedPlan)
		}
		misses := e.Metrics.Counter("cost.misestimate").Value()
		if i == 0 {
			perRequest = misses
		}
		warnings := strings.Count(log.String(), `"msg":"cost misestimate"`)
		if perRequest == 0 || warnings != 1 || !strings.Contains(log.String(), `"msg":"cost misestimate","requestId":"r0","strategy":"ref-gcov","nodes":`) {
			t.Fatalf("request %d: cost.misestimate %d, %d warnings; want a miss that warns once, for r0:\n%s", i, misses, warnings, log.String())
		}
		if i == 1 && misses != 2*perRequest {
			t.Fatalf("a cache hit counted %d misestimates, the planning request %d", misses-perRequest, perRequest)
		}
	}
	e.Tracer = nil
}
