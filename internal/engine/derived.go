package engine

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/rdf"
	"repro/internal/saturation"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/storage"
)

// derived is everything the engine computes from one version of its graph:
// the scan source, statistics, cost models, reformulators, the saturation
// with its store and statistics, and the plan cache. Each artefact is
// built at most once, on first use, behind a sync.OnceValue; engine copies
// share the version by pointer, so whichever request needs an artefact
// first builds it for all of them. A version is never edited: the writer
// replaces it whole (Engine.swap), and a reader keeps the version it
// started with for as long as it holds its copy.
type derived struct {
	// g is the graph the version captured — D, schema, dictionary, which a
	// write replaces, keeps and appends to — and the one its lazies read.
	g      graph.Graph
	plans  *planCache
	shards int // what Engine.shards was when the version was made
	// typeID is rdf:type's ID — a schema change may re-encode it.
	typeID dict.ID
	// views is the view cache under the generation this version's write
	// left behind (nil: no cache).
	views exec.FragmentCache

	// Functions of the schema alone: a data change carries them over.
	ref, incRef func() *core.Reformulator
	rangeRef    func() *core.RangeReformulator

	// from is what data makes the scan source and statistics of, and what
	// the next version starts from (see basis); nil: the graph.
	from            atomic.Pointer[basis]
	data            func() *basis
	model, satModel func() *cost.Model
	sat             func() *saturation.Result
	satRead         atomic.Bool // SatStore (every Sat query) or Saturation read G∞
	satStore        func() *satSource
	satStats        func() *stats.Stats
}

// basis is the scan source and statistics some version built, and the net
// delta from there to the version holding the basis. A version starts on the
// basis of the one it replaces, one delta further, so the writer does no
// store or statistics work; its first reader applies the delta once and
// leaves the version a basis of its own, with no delta and no hold on the
// older source.
type basis struct {
	src            *shard.Store
	stats          *stats.Stats
	added, removed []dict.Triple
}

// then returns b one delta further. A triple added after it was removed, or
// removed after it was added, cancels: exact, because the graph reports
// only the changes that took effect.
func (b *basis) then(added, removed []dict.Triple) *basis {
	nb := *b
	nb.added = slices.Concat(minus(b.added, removed), minus(added, b.removed))
	nb.removed = slices.Concat(minus(b.removed, added), minus(removed, b.added))
	return &nb
}

// minus returns, in a fresh slice, the triples of a that are not in b.
func minus(a, b []dict.Triple) []dict.Triple {
	in := make(map[dict.Triple]bool, len(b))
	for _, t := range b {
		in[t] = true
	}
	return slices.DeleteFunc(slices.Clone(a), func(t dict.Triple) bool { return in[t] })
}

// maxDrift is the share of the data that may change before what was made
// for the earlier data is made afresh: a pending delta larger than that
// share of its basis is forgotten with it, and the next reader builds from
// the graph; and the plan cache — its plans are right on any data, cheapest
// on data like what they were searched on — is started over once the data
// count has moved that far from what it was when the cache was started.
const maxDrift = 1.0 / 8

func drifted(moved, of int) bool { return float64(moved) > maxDrift*float64(of) }

// swap installs a new version of the derived state over the engine's graph
// as it is now, captured, and its configuration (metrics go to the Metrics
// registry set at this point). It is the only place derived state is
// discarded. keep is the version being replaced when only the data changed,
// by added and removed — its schema-only artefacts carry over, so does the
// writer's closure and its plans, up to maxDrift, and while the shard count
// stands so does the basis of its source and statistics, up to maxDrift too —
// and nil when the schema changed, which keeps nothing.
func (e *Engine) swap(keep *derived, added, removed []dict.Triple) {
	d := &derived{g: *e.g, shards: e.shards, typeID: e.g.Dict().EncodeIRI(rdf.TypeIRI)}
	g := &d.g
	if keep != nil {
		d.ref, d.incRef, d.rangeRef = keep.ref, keep.incRef, keep.rangeRef
	} else {
		e.closure = nil
		s := g.Schema()
		d.ref = sync.OnceValue(func() *core.Reformulator { return core.NewReformulator(s) })
		d.incRef = sync.OnceValue(func() *core.Reformulator { return core.NewIncompleteReformulator(s) })
		d.rangeRef = sync.OnceValue(func() *core.RangeReformulator { return core.NewRangeReformulator(s) })
	}
	if keep != nil {
		if b := keep.from.Load(); b != nil && keep.shards == d.shards {
			if b = b.then(added, removed); !drifted(len(b.added)+len(b.removed), b.src.Len()) {
				d.from.Store(b)
			}
		}
		if n, was := g.DataCount(), keep.plans.dataCount; !drifted(max(n-was, was-n), was) {
			d.plans = keep.plans
		}
	}
	if d.plans == nil {
		d.plans = newPlanCache(e.planCap, g.DataCount())
	}
	reg, closure := e.Metrics, e.closure
	d.data = sync.OnceValue(func() *basis {
		start := time.Now()
		b, own := d.from.Load(), &basis{}
		if b == nil {
			own.src = shard.Build(g.Dict(), g.D(), d.shards)
			own.stats = stats.Collect(own.src)
			reg.Counter("engine.derived.rebuilt").Inc()
		} else {
			own.src = b.src.Apply(g.D(), b.added, b.removed)
			own.stats = b.stats.Apply(own.src, b.added, b.removed)
			reg.Counter("engine.derived.applied").Inc()
			reg.Histogram("engine.derived.apply_ms").Observe(float64(time.Since(start)) / float64(time.Millisecond))
		}
		own.src.PublishMetrics(reg)
		d.from.Store(own)
		return own
	})
	d.model = sync.OnceValue(func() *cost.Model { return cost.NewModel(d.data().stats) })
	d.sat = sync.OnceValue(func() *saturation.Result {
		if closure != nil {
			return closure.Result()
		}
		return saturation.Saturate(g)
	})
	d.satStore = sync.OnceValue(func() *satSource {
		return newSatSource(d.data().src, storage.BuildSorted(g.Dict(), d.sat().Delta), d.typeID)
	})
	d.satStats = sync.OnceValue(func() *stats.Stats {
		u := d.satStore()
		return d.data().stats.Plus(u, u.delta)
	})
	d.satModel = sync.OnceValue(func() *cost.Model { return cost.NewModel(d.satStats()) })
	if e.views != nil {
		// Bump the view cache's generation stamp and drop every materialized
		// fragment: they describe the previous version's database.
		d.views = e.views.At(e.views.Invalidate())
	}
	e.d = d
}
