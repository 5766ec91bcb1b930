// Command refdemo mirrors the demonstration walkthrough of §5: pick an RDF
// graph, inspect its statistics (step 1), answer a query through a chosen
// strategy or all of them (step 2), and inspect the reformulation, chosen
// cover, plans and explored alternatives (step 3).
//
//	refdemo -scenario lubm -stats
//	refdemo -scenario lubm -query 'q(x) :- x rdf:type ub:Student' -strategy all
//	refdemo -scenario lubm -example1 -explain
//	refdemo -data mygraph.nt -query 'SELECT ?x WHERE { ?x a <http://...> }'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "built-in scenario: lubm, insee, ign, dblp")
		dataFile = flag.String("data", "", "N-Triples/Turtle file to load instead of a scenario")
		scale    = flag.Int("scale", 1, "LUBM scale factor")
		seed     = flag.Int64("seed", 42, "generator seed")
		stats    = flag.Bool("stats", false, "print dataset statistics (demo step 1)")
		qtext    = flag.String("query", "", "query in rule or SPARQL notation")
		example1 = flag.Bool("example1", false, "use the paper's Example 1 query (LUBM)")
		strategy = flag.String("strategy", "ref-gcov", "strategy: sat, ref-ucq, ref-scq, ref-gcov, ref-range, ref-incomplete, datalog, or all")
		cover    = flag.String("cover", "", "explicit cover for ref-jucq, e.g. '0,2|1,3|2,4'")
		explain  = flag.Bool("explain", false, "show reformulation sizes, cover search and the EXPLAIN plan tree (demo step 3)")
		analyze  = flag.Bool("analyze", false, "execute with tracing and print the span tree with est-vs-actual cardinalities")
		expJSON  = flag.Bool("explain-json", false, "print plan/trace trees as JSON instead of text")
		why      = flag.Bool("why", false, "explain each answer: which reformulation branch produced it")
		maxRows  = flag.Int("maxshow", 20, "maximum answer rows to print")
		timeout  = flag.Duration("timeout", 60*time.Second, "evaluation timeout")
		vcache   = flag.String("view-cache", "off", "fragment view cache: off (default, keeps strategy timings independent) or on")
		vcacheMB = flag.Int("view-cache-mb", 64, "view cache byte budget in MiB (with -view-cache=on)")
	)
	flag.Parse()

	g, prefixes, err := loadGraph(*scenario, *dataFile, *scale, *seed)
	if err != nil {
		fail(err)
	}
	e := engine.New(g)
	e.Budget = exec.Budget{Timeout: *timeout}
	switch strings.ToLower(*vcache) {
	case "on":
		e.EnableViewCache(viewcache.Config{MaxBytes: int64(*vcacheMB) << 20})
	case "off":
	default:
		fail(fmt.Errorf("bad -view-cache %q (want on or off)", *vcache))
	}
	fmt.Printf("graph: %d data triples, %s\n", g.DataCount(), g.Schema())

	if *stats {
		fmt.Println("\n== statistics (demo step 1) ==")
		fmt.Println(e.Stats().Summary(g.Dict(), 10))
	}

	var q query.CQ
	switch {
	case *example1:
		univ := lubm.PickExampleOneUniversity(g)
		if univ == "" {
			fail(fmt.Errorf("no university yields Example 1 answers on this graph"))
		}
		q, err = lubm.ExampleOne(g.Dict(), univ)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nExample 1 query against %s\n", univ)
	case *qtext != "":
		q, err = parseQuery(g, prefixes, *qtext)
		if err != nil {
			fail(err)
		}
	default:
		if !*stats {
			fmt.Fprintln(os.Stderr, "refdemo: nothing to do; pass -stats, -query or -example1")
			os.Exit(2)
		}
		return
	}
	fmt.Printf("query: %s\n", query.FormatCQ(g.Dict(), q))

	if *explain {
		fmt.Println("\n== reformulation and cover search (demo step 3) ==")
		total, per := e.Reformulator().CombinationCount(q)
		fmt.Printf("UCQ reformulation: %d CQs (per atom: %v)\n", total, per)
	}
	if *why {
		printWhy(e, q)
		return
	}

	strategies := []engine.Strategy{engine.Strategy(*strategy)}
	if *strategy == "all" {
		strategies = []engine.Strategy{engine.Sat, engine.RefSCQ, engine.RefGCov, engine.RefRange, engine.RefIncomplete, engine.Dat}
	}
	for _, s := range strategies {
		var (
			ans *engine.Answer
		)
		if *analyze {
			// Fresh tracer per strategy so each run gets its own root span.
			e.Tracer = trace.New(0)
		}
		if *cover != "" {
			c, err := parseCover(*cover)
			if err != nil {
				fail(err)
			}
			s = engine.RefJUCQ
			if *explain {
				printPlan(e, q, s, c, *expJSON)
			}
			ans, err = e.AnswerWithCoverContext(context.Background(), q, c)
			if err != nil {
				fmt.Printf("%-16s FAILED: %v\n", "ref-jucq", err)
				continue
			}
		} else {
			if *explain {
				printPlan(e, q, s, nil, *expJSON)
			}
			var err error
			ans, err = e.AnswerContext(context.Background(), q, s)
			if err != nil {
				fmt.Printf("%-16s FAILED: %v\n", s, err)
				continue
			}
		}
		fmt.Printf("%-16s %6d answers  prep %-10v eval %-10v", s, ans.Rows.Len(),
			ans.PrepTime.Round(time.Microsecond), ans.EvalTime.Round(time.Microsecond))
		if ans.Cover != nil {
			fmt.Printf("  cover %v (%d CQs)", ans.Cover, ans.ReformulationCQs)
		}
		if ans.CachedFragments > 0 {
			fmt.Printf("  cached-fragments %d", ans.CachedFragments)
		}
		fmt.Println()
		if *explain && len(ans.Explored) > 0 {
			fmt.Println("explored covers:")
			for _, ex := range ans.Explored {
				tag := "tried  "
				if ex.Adopted {
					tag = "adopted"
				}
				if ex.Pruned {
					fmt.Printf("  pruned  %-40v %s\n", ex.Cover, ex.Reason)
					continue
				}
				fmt.Printf("  %s %-40v cost=%.0f card=%.0f\n", tag, ex.Cover, ex.Cost, ex.Card)
			}
		}
		if *analyze {
			fmt.Println("execution trace (EXPLAIN ANALYZE):")
			printTrace(e.Tracer.Root(), *expJSON)
		}
		printAnswers(g, ans, *maxRows)
	}
}

// printPlan shows the EXPLAIN tree for strategy s without executing.
func printPlan(e *engine.Engine, q query.CQ, s engine.Strategy, c query.Cover, asJSON bool) {
	var (
		p   *engine.Plan
		err error
	)
	if c != nil {
		p, err = e.PlanWithCover(q, c)
	} else {
		p, err = e.Plan(q, s)
	}
	if err != nil {
		fmt.Printf("plan for %s unavailable: %v\n", s, err)
		return
	}
	fmt.Println("plan (EXPLAIN):")
	if asJSON {
		out, _ := json.MarshalIndent(p.Tree(), "", "  ")
		fmt.Println(string(out))
		return
	}
	fmt.Print(indent(p.Explain(), "  "))
}

// printTrace shows an executed span tree with timings.
func printTrace(root *trace.Span, asJSON bool) {
	if root == nil {
		return
	}
	if asJSON {
		out, _ := json.MarshalIndent(trace.ToJSON(root), "", "  ")
		fmt.Println(string(out))
		return
	}
	fmt.Print(indent(trace.Render(root, trace.RenderOptions{Timing: true}), "  "))
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func loadGraph(scenario, dataFile string, scale int, seed int64) (*graph.Graph, map[string]string, error) {
	if dataFile != "" {
		g, err := graph.LoadFile(dataFile)
		return g, nil, err
	}
	switch scenario {
	case "", "lubm":
		p := lubm.Default()
		p.Universities = scale
		g, err := lubm.NewGraph(p, seed)
		return g, map[string]string{"ub": lubm.NS}, err
	case "insee", "ign", "dblp":
		scs, err := datasets.All(datasets.Base, seed)
		if err != nil {
			return nil, nil, err
		}
		for _, sc := range scs {
			if sc.Name == scenario {
				return sc.Graph, sc.Prefixes, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("unknown scenario %q (want lubm, insee, ign or dblp)", scenario)
}

func parseQuery(g *graph.Graph, prefixes map[string]string, text string) (query.CQ, error) {
	upper := strings.ToUpper(strings.TrimSpace(text))
	if strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "PREFIX") {
		return query.ParseSPARQL(g.Dict(), text)
	}
	return query.ParseRuleWithPrefixes(g.Dict(), prefixes, text)
}

func parseCover(s string) (query.Cover, error) {
	var c query.Cover
	for _, frag := range strings.Split(s, "|") {
		var idxs []int
		for _, part := range strings.Split(frag, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil {
				return nil, fmt.Errorf("bad cover fragment %q", frag)
			}
			idxs = append(idxs, n)
		}
		c = append(c, idxs)
	}
	return c, nil
}

func printAnswers(g *graph.Graph, ans *engine.Answer, maxRows int) {
	d := g.Dict()
	ans.Rows.SortFirst(maxRows)
	n := ans.Rows.Len()
	if n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		row := ans.Rows.Row(i)
		parts := make([]string, len(row))
		for j, id := range row {
			parts[j] = d.Decode(id).String()
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	if ans.Rows.Len() > maxRows {
		fmt.Printf("  … %d more rows\n", ans.Rows.Len()-maxRows)
	}
}

// printWhy explains each answer through its producing reformulation
// branches.
func printWhy(e *engine.Engine, q query.CQ) {
	d := e.Graph().Dict()
	u := e.Reformulator().ReformulateCQ(q)
	ev := exec.New(e.Store(), e.Stats())
	rows, prov, err := ev.EvalUCQWithProvenanceContext(context.Background(), u)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%d answers from a %d-CQ reformulation\n", rows.Len(), len(u.CQs))
	for i := 0; i < rows.Len() && i < 25; i++ {
		var parts []string
		for _, id := range rows.Row(i) {
			parts = append(parts, d.Decode(id).String())
		}
		fmt.Printf("\nanswer %s\n", strings.Join(parts, "  "))
		for _, ci := range prov[i] {
			tag := "derived "
			if ci == 0 {
				tag = "explicit"
			}
			fmt.Printf("  %s via %s\n", tag, query.FormatCQ(d, u.CQs[ci]))
		}
	}
	if rows.Len() > 25 {
		fmt.Printf("\n… %d more answers\n", rows.Len()-25)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "refdemo:", err)
	os.Exit(1)
}
