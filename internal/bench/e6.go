package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/saturation"
)

// E6Result reproduces the §1 motivation: Sat's hidden costs — saturation
// time, storage blow-up, and maintenance after updates — against Ref,
// which touches neither the data nor any materialization.
type E6Result struct {
	DataTriples    int
	DerivedTriples int
	GrowthPercent  float64
	SaturateTime   time.Duration
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
}

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
	res.DerivedTriples = sat.Derived
	res.GrowthPercent = 100 * float64(sat.Derived) / float64(maxIntE6(res.DataTriples, 1))

	// Batch insert: new triples from a different seed (fresh entities).
	batchRaw := lubm.Generate(lubm.Mini(), cfg.Seed+99)
	batch := make([]dict.Triple, 0, len(batchRaw))
	for _, t := range batchRaw {
		batch = append(batch, g.Dict().EncodeTriple(t))
	}
	res.BatchSize = len(batch)

	start = time.Now()
	inc := saturation.Increment(g, sat, batch)
	res.IncrementTime = time.Since(start)

	if _, err := g.AddData(batchRaw); err != nil {
		return nil, err
	}
	start = time.Now()
	full := saturation.Saturate(g)
	res.ResaturateTime = time.Since(start)
	if len(full.Triples) != len(inc.Triples) {
		return nil, fmt.Errorf("bench: incremental saturation diverged: %d vs %d triples",
			len(inc.Triples), len(full.Triples))
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
	ans, err := e.Answer(q, engine.RefGCov)
	if err != nil {
		return nil, err
	}
	res.RefPrepTime = ans.PrepTime

	res.Table.Header = []string{"measure", "value"}
	res.Table.Add("explicit data triples", res.DataTriples)
	res.Table.Add("derived (implicit) triples", res.DerivedTriples)
	res.Table.Add("storage growth", fmt.Sprintf("%.1f%%", res.GrowthPercent))
	res.Table.Add("initial saturation", res.SaturateTime)
	res.Table.Add(fmt.Sprintf("maintain after %d-triple insert (incremental)", res.BatchSize), res.IncrementTime)
	res.Table.Add(fmt.Sprintf("maintain after %d-triple delete (counting)", res.BatchSize), res.DeleteTime)
	res.Table.Add("recompute saturation from scratch", res.ResaturateTime)
	res.Table.Add("Ref: data/maintenance cost", "none (data untouched)")
	res.Table.Add("Ref: per-query preparation (GCov)", res.RefPrepTime)
	return res, nil
}

func maxIntE6(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// String renders the report.
func (r *E6Result) String() string {
	var sb strings.Builder
	sb.WriteString("E6 — Sat maintenance costs vs Ref (§1 motivation)\n")
	sb.WriteString(r.Table.String())
	return sb.String()
}
