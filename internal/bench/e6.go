package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/saturation"
)

// E6Result reproduces the §1 motivation: Sat's hidden costs — saturation
// time, storage blow-up, and maintenance after updates — against Ref,
// which touches neither the data nor any materialization.
type E6Result struct {
	DataTriples    int
	DerivedTriples int
	GrowthPercent  float64
	// The heap the serving engine's stores take: the data store's own (its
	// SPO run is the graph's D) and the Sat store's own (the store of Δ; D
	// it reads from the data store).
	DataStoreBytes, SatStoreBytes uint64
	SaturateTime                  time.Duration
	// Incremental maintenance of the saturation for a batch insert,
	// vs. recomputing from scratch; DeleteTime is the counting-based
	// retraction of the same batch.
	BatchSize      int
	IncrementTime  time.Duration
	DeleteTime     time.Duration
	ResaturateTime time.Duration
	// Ref-side preparation for one query (GCov search), incurred per
	// query, zero per update.
	RefPrepTime time.Duration
	Table       Table
	// Updates is the other half of the ledger, at half the profile's
	// departments, the profile and five times its universities: how long
	// after a 20-triple write the first answer of LUBM Q1 arrives.
	Updates     []E6Update
	UpdateTable Table
}

// E6Update is one size's row: write → first answer, the median of five
// insert/delete cycles. Ref's is the merge of the delta into the store and
// statistics (nothing at the write itself); Sat's is the maintenance of the
// closure plus the rebuild of the store of Δ, the triples it adds to D.
type E6Update struct {
	DataTriples                                int
	RefInsert, RefDelete, SatInsert, SatDelete time.Duration
}

// e6Update measures one row of E6Result.Updates on profile p.
func e6Update(p lubm.Profile, seed int64) (row E6Update, err error) {
	g, err := lubm.NewGraph(p, seed)
	if err != nil {
		return row, err
	}
	qs, err := lubm.ParseQueries(g.Dict(), 0, 0)
	if err != nil {
		return row, err
	}
	q, dept := qs[0].CQ, lubm.DeptIRI(0, 0).Value // Q1: graduate students taking the department's GraduateCourse0
	var batch []rdf.Triple
	for i := 0; i < 10; i++ {
		st := rdf.NewIRI(fmt.Sprintf("%s/E6Student%d", dept, i))
		batch = append(batch, rdf.NewTriple(st, rdf.Type, lubm.Class("GraduateStudent")),
			rdf.NewTriple(st, lubm.Prop("takesCourse"), rdf.NewIRI(dept+"/GraduateCourse0")))
	}
	e := engine.New(g)
	row.DataTriples = g.DataCount()
	// after times a write and the first answer behind it, and counts its
	// rows; it starts from a collected heap, so that what is timed is the
	// work and not the previous cycle's garbage.
	after := func(s engine.Strategy, write func() error) (time.Duration, int) {
		runtime.GC()
		start := time.Now()
		if werr := write(); werr != nil {
			err = werr
		}
		//reflint:ctxbg experiment driver: nothing upstream cancels it
		ans, aerr := e.AnswerContext(context.Background(), q, s)
		if aerr != nil {
			err = aerr
			return 0, 0
		}
		return time.Since(start), ans.Rows.Len()
	}
	insert := func() error { return e.InsertData(batch) }
	remove := func() error { _, derr := e.DeleteData(batch); return derr }
	// Ref first, while nobody has read G∞ and the writer keeps no closure. A
	// strategy's first cycle is not counted: it searches Ref's plan, and
	// starts Sat's closure.
	for _, m := range []struct {
		s        engine.Strategy
		ins, del *time.Duration
	}{{engine.RefGCov, &row.RefInsert, &row.RefDelete}, {engine.Sat, &row.SatInsert, &row.SatDelete}} {
		var ins, del []time.Duration
		for cycle := 0; cycle < 6; cycle++ {
			ti, with := after(m.s, insert)
			td, without := after(m.s, remove)
			if err == nil && with != without+10 {
				err = fmt.Errorf("bench: %s answers %d rows with the batch, %d without", m.s, with, without)
			}
			if err != nil {
				return row, err
			}
			ins, del = append(ins, ti), append(del, td)
		}
		*m.ins, *m.del = p50(ins[1:]), p50(del[1:])
	}
	return row, nil
}

// storeBytes returns the heap e's data store and statistics take beyond
// its graph, and the heap its Sat store and statistics take beyond those.
func storeBytes(e *engine.Engine) (data, sat uint64) {
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	e.Stats()
	withData := live()
	e.SatStats()
	withSat := live()
	runtime.KeepAlive(e)
	return withData - min(before, withData), withSat - min(withData, withSat)
}

func mb(b uint64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }

// E6 measures saturation and maintenance costs on LUBM.
func E6(cfg Config) (*E6Result, error) {
	cfg = cfg.withDefaults()
	g, err := lubm.NewGraph(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &E6Result{DataTriples: g.DataCount()}

	start := time.Now()
	sat := saturation.Saturate(g)
	res.SaturateTime = time.Since(start)
	res.DerivedTriples = sat.Delta.Len()
	res.GrowthPercent = 100 * float64(res.DerivedTriples) / float64(max(res.DataTriples, 1))
	res.DataStoreBytes, res.SatStoreBytes = storeBytes(engine.New(g))

	// Batch insert: new triples from a different seed (fresh entities).
	batchRaw := lubm.Generate(lubm.Mini(), cfg.Seed+99)
	res.BatchSize = len(batchRaw)
	batch, err := g.AddData(batchRaw)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	inc := saturation.Increment(g, sat, batch)
	res.IncrementTime = time.Since(start)

	start = time.Now()
	full := saturation.Saturate(g)
	res.ResaturateTime = time.Since(start)
	if full.Delta.Len() != inc.Delta.Len() {
		return nil, fmt.Errorf("bench: incremental saturation diverged: %d vs %d derived triples",
			inc.Delta.Len(), full.Delta.Len())
	}

	// Deletion maintenance with the counting-based maintained closure.
	maintained := saturation.NewMaintained(g)
	removed, err := g.RemoveData(batchRaw)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	maintained.Delete(removed)
	res.DeleteTime = time.Since(start)

	// Ref preparation cost for one representative query.
	univ := lubm.PickExampleOneUniversity(g)
	if univ == "" {
		univ = "http://www.University0.edu"
	}
	q, err := lubm.ExampleOne(g.Dict(), univ)
	if err != nil {
		return nil, err
	}
	e := engine.New(g)
	//reflint:ctxbg experiment driver: nothing upstream cancels it
	ans, err := e.AnswerContext(context.Background(), q, engine.RefGCov)
	if err != nil {
		return nil, err
	}
	res.RefPrepTime = ans.PrepTime

	res.Table.Header = []string{"measure", "value"}
	res.Table.Add("explicit data triples", res.DataTriples)
	res.Table.Add("derived (implicit) triples", res.DerivedTriples)
	res.Table.Add("storage growth", fmt.Sprintf("%.1f%%", res.GrowthPercent))
	res.Table.Add("serving engine heap: data store (POS, OSP, statistics; its SPO is D)", mb(res.DataStoreBytes))
	res.Table.Add("serving engine heap: Sat store (Δ's three orderings, statistics)", fmt.Sprintf("%s (%.0f%% of the data store's)",
		mb(res.SatStoreBytes), 100*float64(res.SatStoreBytes)/float64(max(res.DataStoreBytes, 1))))
	res.Table.Add("initial saturation", res.SaturateTime)
	res.Table.Add(fmt.Sprintf("maintain after %d-triple insert (incremental)", res.BatchSize), res.IncrementTime)
	res.Table.Add(fmt.Sprintf("maintain after %d-triple delete (counting)", res.BatchSize), res.DeleteTime)
	res.Table.Add("recompute saturation from scratch", res.ResaturateTime)
	res.Table.Add("Ref: data/maintenance cost", "none (data untouched)")
	res.Table.Add("Ref: per-query preparation (GCov)", res.RefPrepTime)

	half, five := cfg.Profile, cfg.Profile
	half.DeptMin = max(1, (cfg.Profile.DeptMin+cfg.Profile.DeptMax)/4)
	half.DeptMax = half.DeptMin
	five.Universities *= 5
	res.UpdateTable.Header = []string{"data triples", "Ref after insert", "Ref after delete", "Sat after insert", "Sat after delete"}
	for _, p := range []lubm.Profile{half, cfg.Profile, five} {
		row, err := e6Update(p, cfg.Seed)
		if err != nil {
			return nil, err
		}
		res.Updates = append(res.Updates, row)
		res.UpdateTable.Add(row.DataTriples, row.RefInsert, row.RefDelete, row.SatInsert, row.SatDelete)
	}
	return res, nil
}

// String renders the report.
func (r *E6Result) String() string {
	var sb strings.Builder
	sb.WriteString("E6 — Sat maintenance costs vs Ref (§1 motivation)\n")
	sb.WriteString(r.Table.String())
	sb.WriteString("after a 20-triple write, the first answer of Q1 (Ref: merge the delta; Sat: maintain the closure, rebuild Δ's store):\n")
	sb.WriteString(r.UpdateTable.String())
	return sb.String()
}
