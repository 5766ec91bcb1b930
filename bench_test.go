// Benchmarks regenerating the paper's quantitative results (one benchmark
// per experiment row; see DESIGN.md §5 and EXPERIMENTS.md). The E1 family
// is the headline: Example 1's strategies at LUBM(1) scale. Remaining
// families use the Mini profile so `go test -bench=.` stays minutes, not
// hours; cmd/refbench runs the same experiments at full scale.
package repro

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lubm"
	"repro/internal/ntriples"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/saturation"
	"repro/internal/stats"
	"repro/internal/storage"
)

// --- shared fixtures -------------------------------------------------------

type fixture struct {
	g    *graph.Graph
	eng  *engine.Engine
	q    query.CQ // Example 1
	univ string
}

var (
	fixOnce sync.Once
	fixDef  *fixture // LUBM(1) default profile
	fixMini *fixture
)

func fixtures(b *testing.B) (*fixture, *fixture) {
	b.Helper()
	fixOnce.Do(func() {
		build := func(p lubm.Profile) *fixture {
			g, err := lubm.NewGraph(p, 42)
			if err != nil {
				panic(err)
			}
			univ := lubm.PickExampleOneUniversity(g)
			if univ == "" {
				univ = "http://www.University0.edu"
			}
			q, err := lubm.ExampleOne(g.Dict(), univ)
			if err != nil {
				panic(err)
			}
			f := &fixture{g: g, eng: engine.New(g), q: q, univ: univ}
			// Warm the caches shared by all strategies (store, stats,
			// saturation) so per-iteration timings isolate evaluation.
			f.eng.Store()
			f.eng.Stats()
			f.eng.SatStore()
			f.eng.SatStats()
			return f
		}
		fixDef = build(lubm.Default())
		fixMini = build(lubm.Mini())
	})
	return fixDef, fixMini
}

func benchStrategy(b *testing.B, f *fixture, q query.CQ, s engine.Strategy) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		ans, err := f.eng.AnswerContext(context.Background(), q, s)
		if err != nil {
			b.Fatal(err)
		}
		rows = ans.Rows.Len()
	}
	b.ReportMetric(float64(rows), "answers")
}

// --- E1: Example 1 (§4) ------------------------------------------------------

func BenchmarkE1_RefSCQ(b *testing.B) {
	f, _ := fixtures(b)
	benchStrategy(b, f, f.q, engine.RefSCQ)
}

func BenchmarkE1_RefJUCQ_PaperCover(b *testing.B) {
	f, _ := fixtures(b)
	var rows int
	for i := 0; i < b.N; i++ {
		ans, err := f.eng.AnswerWithCoverContext(context.Background(), f.q, lubm.ExampleOneCover())
		if err != nil {
			b.Fatal(err)
		}
		rows = ans.Rows.Len()
	}
	b.ReportMetric(float64(rows), "answers")
}

func BenchmarkE1_RefGCov(b *testing.B) {
	f, _ := fixtures(b)
	benchStrategy(b, f, f.q, engine.RefGCov)
}

func BenchmarkE1_Sat(b *testing.B) {
	f, _ := fixtures(b)
	benchStrategy(b, f, f.q, engine.Sat)
}

// BenchmarkE1_RefUCQ evaluates the full 189K-CQ union — the strategy the
// paper could not even parse at its scale. Expect seconds per iteration.
func BenchmarkE1_RefUCQ(b *testing.B) {
	if testing.Short() {
		b.Skip("full UCQ evaluation is seconds per op")
	}
	f, _ := fixtures(b)
	benchStrategy(b, f, f.q, engine.RefUCQ)
}

// BenchmarkE1_ReformulationEnumeration measures producing the UCQ itself
// (the paper's "could not be parsed" artifact: ~189K CQs).
func BenchmarkE1_ReformulationEnumeration(b *testing.B) {
	f, _ := fixtures(b)
	r := f.eng.Reformulator()
	var n int
	for i := 0; i < b.N; i++ {
		n = 0
		r.EnumerateCQ(f.q, func(query.CQ) bool {
			n++
			return true
		})
	}
	b.ReportMetric(float64(n), "CQs")
}

// --- E3: cross-system comparison (demo step 2) ------------------------------

func benchE3(b *testing.B, s engine.Strategy) {
	_, f := fixtures(b)
	qs, err := lubm.ParseQueries(f.g.Dict(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	q := qs[4].CQ // Q5: members of a department that are Persons
	benchStrategy(b, f, q, s)
}

func BenchmarkE3_Q5_Sat(b *testing.B)           { benchE3(b, engine.Sat) }
func BenchmarkE3_Q5_RefSCQ(b *testing.B)        { benchE3(b, engine.RefSCQ) }
func BenchmarkE3_Q5_RefGCov(b *testing.B)       { benchE3(b, engine.RefGCov) }
func BenchmarkE3_Q5_RefIncomplete(b *testing.B) { benchE3(b, engine.RefIncomplete) }
func BenchmarkE3_Q5_Datalog(b *testing.B)       { benchE3(b, engine.Dat) }

// --- E4: cover search itself (demo step 3) -----------------------------------

func BenchmarkE4_GCovSearch(b *testing.B) {
	f, _ := fixtures(b)
	r := f.eng.Reformulator()
	m := f.eng.CostModel()
	// The search prices each candidate cover through Model.CQ/JoinFragments:
	// allocs/op is where a plan loop that started allocating would show.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GCov(r, m, f.q, core.GCovOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: constraint modification impact (demo step 4) -----------------------

func BenchmarkE5_ReformulateBase(b *testing.B) {
	f, _ := fixtures(b)
	r := f.eng.Reformulator()
	for i := 0; i < b.N; i++ {
		r.CombinationCount(f.q)
	}
}

func BenchmarkE5_ReformulateEnrichedSchema(b *testing.B) {
	_, f := fixtures(b)
	// Rebuild the mini graph with 5 extra subproperties per degree
	// property (the E5 "+degree hierarchy" variant).
	ts := lubm.OntologyTriples()
	for _, parent := range []string{"mastersDegreeFrom", "doctoralDegreeFrom"} {
		for i := 0; i < 5; i++ {
			sub := rdf.NewIRI(lubm.NS + parent + "Var" + string(rune('0'+i)))
			ts = append(ts, rdf.NewTriple(sub, rdf.SubPropertyOf, lubm.Prop(parent)))
		}
	}
	ts = append(ts, lubm.Generate(lubm.Mini(), 42)...)
	g, err := graph.FromTriples(ts)
	if err != nil {
		b.Fatal(err)
	}
	q, err := lubm.ExampleOne(g.Dict(), f.univ)
	if err != nil {
		b.Fatal(err)
	}
	r := core.NewReformulator(g.Schema())
	for i := 0; i < b.N; i++ {
		r.CombinationCount(q)
	}
}

// --- E6: saturation and maintenance (§1 motivation) --------------------------

func BenchmarkE6_Saturate(b *testing.B) {
	f, _ := fixtures(b)
	var derived int
	for i := 0; i < b.N; i++ {
		derived = saturation.Saturate(f.g).Delta.Len()
	}
	b.ReportMetric(float64(derived), "derived")
}

func BenchmarkE6_IncrementalMaintenance(b *testing.B) {
	g, err := lubm.NewGraph(lubm.Default(), 42) // a graph of its own: it is written
	if err != nil {
		b.Fatal(err)
	}
	prev := saturation.Saturate(g)
	added, err := g.AddData(lubm.Generate(lubm.Mini(), 123))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saturation.Increment(g, prev, added)
	}
}

// --- substrate micro-benchmarks ----------------------------------------------

func BenchmarkStore_PatternScan(b *testing.B) {
	f, _ := fixtures(b)
	st := f.eng.Store()
	typeID, _ := f.g.Dict().Lookup(rdf.Type)
	pat := storage.Pattern{P: typeID}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = st.Count(pat)
	}
	b.ReportMetric(float64(n), "rows")
}

func BenchmarkExec_HashJoinChain(b *testing.B) {
	f, _ := fixtures(b)
	d := f.g.Dict()
	q, err := query.ParseRuleWithPrefixes(d, map[string]string{"ub": lubm.NS},
		`q(x, z) :- x ub:advisor y, y ub:teacherOf z`)
	if err != nil {
		b.Fatal(err)
	}
	ev := exec.New(f.eng.Store(), f.eng.Stats())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalCQContext(context.Background(), query.HeadVarNames(q), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStats_Collect(b *testing.B) {
	_, f := fixtures(b)
	st := f.eng.Store()
	for i := 0; i < b.N; i++ {
		stats.Collect(st)
	}
}

func BenchmarkDatalog_Fixpoint(b *testing.B) {
	_, f := fixtures(b)
	for i := 0; i < b.N; i++ {
		p := datalog.EncodeGraph(f.g)
		if _, err := datalog.RunContext(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParser_NTriples(b *testing.B) {
	_, f := fixtures(b)
	var sb strings.Builder
	if err := ntriples.Write(&sb, f.g.DecodedData()); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ntriples.ParseString(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicAPI_Answer(b *testing.B) {
	db, err := OpenLUBM(0, 42)
	if err != nil {
		b.Fatal(err)
	}
	// Warm caches.
	if _, err := db.AnswerContext(context.Background(), `q(x) :- x rdf:type ub:Student`, Options{Prefixes: map[string]string{"ub": lubm.NS}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.AnswerContext(context.Background(), `q(x) :- x rdf:type ub:Student`, Options{Prefixes: map[string]string{"ub": lubm.NS}}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (design-choice benches called out in DESIGN.md) ---------------

// BenchmarkAblation_GCovCover_INLJvsHash quantifies how much of the JUCQ
// win comes from index-nested-loop probing inside fragment CQs: the same
// GCov-selected JUCQ evaluated with and without INLJ.
func BenchmarkAblation_GCovCover_Default(b *testing.B) {
	f, _ := fixtures(b)
	res, err := core.GCov(f.eng.Reformulator(), f.eng.CostModel(), f.q, core.GCovOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ev := exec.New(f.eng.Store(), f.eng.Stats())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalJUCQContext(context.Background(), res.JUCQ); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_GCovCover_ForceHashJoins(b *testing.B) {
	f, _ := fixtures(b)
	res, err := core.GCov(f.eng.Reformulator(), f.eng.CostModel(), f.q, core.GCovOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ev := exec.New(f.eng.Store(), f.eng.Stats())
	ev.ForceHashJoins = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalJUCQContext(context.Background(), res.JUCQ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ExhaustiveCov prices the full partition-cover space —
// the optimum GCov approximates greedily (compare with
// BenchmarkE4_GCovSearch).
func BenchmarkAblation_ExhaustiveCov(b *testing.B) {
	f, _ := fixtures(b)
	r := f.eng.Reformulator()
	m := f.eng.CostModel()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExhaustiveCov(r, m, f.q, core.GCovOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_MaintainedDelete measures counting-based deletion.
func BenchmarkE6_MaintainedDelete(b *testing.B) {
	f, _ := fixtures(b)
	var batch []dict.Triple
	for _, t := range f.g.DecodedData()[:500] {
		batch = append(batch, f.g.Dict().EncodeTriple(t))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := saturation.NewMaintained(f.g)
		b.StartTimer()
		m.Delete(batch)
	}
}

// BenchmarkSnapshot round-trips the LUBM graph through the binary format.
func BenchmarkSnapshot_WriteRead(b *testing.B) {
	f, _ := fixtures(b)
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := f.g.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := graph.ReadSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Cap()))
	}
}
