package engine

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/saturation"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/storage"
)

// derived is everything the engine computes from one version of its graph:
// the scan source, statistics, cost models, reformulators, the saturation
// with its store and statistics, and the GCov plan cache. Each artefact is
// built at most once, on first use, behind a sync.OnceValue; engine copies
// share the version by pointer, so whichever request needs an artefact
// first builds it for all of them. A version is never edited: the writer
// replaces it whole (Engine.swap), and a reader keeps the version it
// started with for as long as it holds its copy.
type derived struct {
	plans *planCache

	// Functions of the schema alone: a data change carries them over.
	ref, incRef func() *core.Reformulator
	rangeRef    func() *core.RangeReformulator

	store           func() *storage.Store
	sharded         func() *shard.Store // nil result when unsharded
	stats           func() *stats.Stats
	model, satModel func() *cost.Model
	sat             func() saturated
	satStore        func() *storage.Store
	satStats        func() *stats.Stats
}

// saturated is G∞ and how long it took to produce.
type saturated struct {
	res  *saturation.Result
	took time.Duration
}

// swap installs a new version of the derived state, computed from the
// engine's graph and configuration as they are now (the shard gauges go to
// the Metrics registry set at this point). It is the only place derived
// state is discarded. keep is the version being replaced when only the
// data changed — its schema-only artefacts carry over, and so does the
// writer's closure — and nil when the schema changed, which keeps nothing.
func (e *Engine) swap(keep *derived) {
	d := &derived{plans: newPlanCache(e.planCap)}
	if keep != nil {
		d.ref, d.incRef, d.rangeRef = keep.ref, keep.incRef, keep.rangeRef
	} else {
		e.closure = nil
		s := e.g.Schema()
		d.ref = sync.OnceValue(func() *core.Reformulator { return core.NewReformulator(s) })
		d.incRef = sync.OnceValue(func() *core.Reformulator { return core.NewIncompleteReformulator(s) })
		d.rangeRef = sync.OnceValue(func() *core.RangeReformulator { return core.NewRangeReformulator(s) })
	}
	g, shards, reg, closure := e.g, e.shards, e.Metrics, e.closure
	d.store = sync.OnceValue(func() *storage.Store { return storage.Build(g.Dict(), g.AllTriples()) })
	d.sharded = sync.OnceValue(func() *shard.Store {
		if shards < 2 {
			return nil
		}
		sh := shard.Build(g.Dict(), g.AllTriples(), shards)
		sh.PublishMetrics(reg)
		return sh
	})
	d.stats = sync.OnceValue(func() *stats.Stats {
		if sh := d.sharded(); sh != nil {
			return stats.Collect(sh)
		}
		return stats.Collect(d.store())
	})
	d.model = sync.OnceValue(func() *cost.Model {
		m := cost.NewModel(d.stats())
		m.SetShards(shards)
		return m
	})
	d.sat = sync.OnceValue(func() saturated {
		start := time.Now()
		var res *saturation.Result
		if closure != nil {
			res = closure.Result()
		} else {
			res = saturation.Saturate(g)
		}
		return saturated{res, time.Since(start)}
	})
	d.satStore = sync.OnceValue(func() *storage.Store { return storage.Build(g.Dict(), d.sat().res.Triples) })
	d.satStats = sync.OnceValue(func() *stats.Stats { return stats.Collect(d.satStore()) })
	d.satModel = sync.OnceValue(func() *cost.Model { return cost.NewModel(d.satStats()) })
	e.d = d
	if e.views != nil {
		// Bump the view cache's generation stamp and drop every materialized
		// fragment: they describe the previous version's database.
		e.views.Invalidate()
	}
}
