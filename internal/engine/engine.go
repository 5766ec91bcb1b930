// Package engine ties the substrates together into the query answering
// strategies the demo compares (§5): Sat (saturation), Ref with a fixed
// UCQ or SCQ reformulation, Ref with a user-chosen cover (JUCQ), Ref with
// the cost-based GCov cover, the fixed *incomplete* Ref of native RDF
// platforms, and Dat (the Datalog encoding).
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/saturation"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

// Strategy names a query answering technique.
type Strategy string

// The available strategies.
const (
	// Sat evaluates the query directly against the saturated graph G∞.
	Sat Strategy = "sat"
	// RefUCQ evaluates the CQ→UCQ reformulation of [9] against the
	// explicit data.
	RefUCQ Strategy = "ref-ucq"
	// RefSCQ evaluates the semi-conjunctive reformulation of [15].
	RefSCQ Strategy = "ref-scq"
	// RefJUCQ evaluates the JUCQ induced by a caller-chosen cover.
	RefJUCQ Strategy = "ref-jucq"
	// RefGCov evaluates the JUCQ of the cover selected by the greedy
	// cost-based search (the paper's contribution).
	RefGCov Strategy = "ref-gcov"
	// RefRange evaluates the one-block cover in range form: under the
	// hierarchy-aware interval ID encoding the query's one fragment
	// reformulates into a handful of range CQs whose interval-constrained
	// scans stand for whole hierarchy unions.
	RefRange Strategy = "ref-range"
	// RefIncomplete evaluates the UCQ reformulation restricted to
	// subClassOf/subPropertyOf rules — the fixed incomplete strategy of
	// Virtuoso/AllegroGraph per [6]. Its answers may be incomplete.
	RefIncomplete Strategy = "ref-incomplete"
	// Dat encodes graph, constraints and query into a Datalog program.
	Dat Strategy = "datalog"
)

// Strategies lists every strategy in presentation order.
var Strategies = []Strategy{Sat, RefUCQ, RefSCQ, RefJUCQ, RefGCov, RefRange, RefIncomplete, Dat}

// Answer is the outcome of answering one query with one strategy.
type Answer struct {
	Strategy Strategy
	Rows     *exec.Relation
	// Cover is the cover used (JUCQ-based strategies).
	Cover query.Cover
	// ReformulationCQs counts the CQs in the reformulation evaluated
	// (total across fragments for JUCQ strategies; 1 for Sat/Dat).
	ReformulationCQs int
	// PrepTime covers reformulation / cover search / program encoding. It
	// excludes saturation: G∞ is built once per version of the data and
	// shared across queries.
	PrepTime time.Duration
	// EvalTime covers evaluation proper.
	EvalTime time.Duration
	// Explored is GCov's explored cover space (RefGCov only). With
	// CachedPlan set it is the space explored for the constants the query's
	// shape was first planned with.
	Explored []core.Explored
	// EstimatedCost is the cost model's estimate for what was evaluated
	// (zero where the model has no price: the lazily enumerated UCQ
	// strategies and Dat). With CachedPlan set it is, for the JUCQ
	// strategies, the estimate made for the constants the query's shape was
	// first planned with — constants of the same selectivity classes.
	EstimatedCost float64
	// CachedPlan reports that the plan came from the engine's plan cache
	// (RefSCQ, RefJUCQ, RefGCov, RefRange), which keeps one per query shape
	// and selectivity class: PrepTime then excludes reformulation and the
	// cover search.
	CachedPlan bool
	// CachedFragments counts the JUCQ fragments served from the view
	// cache (zero when the cache is disabled or the strategy does not
	// evaluate fragments).
	CachedFragments int
	// QueueWait is the time the evaluation spent queued at the admission
	// gate (zero without a gate, or when admitted immediately).
	QueueWait time.Duration
	// AdmissionWeight is the gate weight the evaluation held (zero
	// without a gate). Union answers report the heaviest member.
	AdmissionWeight int
	// FragmentSigs are the hex-encoded view-cache keys of the evaluated
	// JUCQ fragments, aligned with the plan's fragment order — the same
	// identity the view cache keys on, so a workload journal can correlate
	// fragment frequency with cache behavior. Populated for
	// fragment-evaluating strategies only when Engine.CaptureFragmentSigs
	// is set (the keys derive from the cached plan's signatures, so an
	// answer pays a hash and a hex encoding per fragment).
	FragmentSigs []string
}

// Engine answers queries over one graph with any strategy. What it computes
// from the graph — store, statistics, saturation, reformulators, plans — is
// one version of derived state (see derived.go), built lazily and at most
// once per version.
//
// Concurrency: EnableSharding, EnableViewCache, SetPlanCacheCapacity and the
// exported fields configure an engine before it is shared. The one writer,
// serialized by the caller, copies the published engine (next := *e),
// applies InsertData, DeleteData or UpdateSchema to the copy and publishes
// it, e.g. through an atomic.Pointer. A reader copies the engine it loads,
// sets its own Budget, Tracer and Logger, and answers concurrently with other
// readers and the writer, taking no lock: copies share derived state, view
// cache, gate and registry, each safe for concurrent use, and answer from
// their own version — graph, store, view-cache generation.
type Engine struct {
	g *graph.Graph // the writer's, written in place; readers read derived.g
	// d is the current version of the derived state; never nil.
	d *derived

	// Budget bounds each evaluation (zero: unlimited).
	Budget exec.Budget
	// MaxFragmentCQs bounds per-fragment reformulation sizes for the
	// JUCQ strategies (zero: core.DefaultMaxFragmentCQs).
	MaxFragmentCQs int
	// Metrics, when non-nil, receives per-strategy query counts and
	// latency histograms, reformulation sizes, plan-cache traffic and
	// executor row counters. The registry is safe to share across the
	// per-request engine copies the HTTP layer makes.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records a span tree per answered query:
	// reformulate / plan / eval phases and one span per executor operator
	// with estimated next to actual cardinalities. A tracer is per-query
	// state — the HTTP layer sets a fresh one on each per-request engine
	// copy.
	Tracer *trace.Tracer
	// Logger, when non-nil, receives structured warnings, e.g. cost-model
	// misestimates detected on traced queries. A warning names the request
	// by the requestId attribute of the trace's root span, when it has one.
	Logger *slog.Logger
	// Admission, when non-nil, gates every evaluation: after
	// reformulation/planning prices the query, the evaluation phase
	// acquires gate slots proportional to the estimate and may queue,
	// shed (admission.ErrRejected) or — while queued — be canceled.
	// Like the plan cache it is shared by pointer across the per-request
	// engine copies the HTTP layer makes. Queue wait does not consume
	// Budget.Timeout: the budget clock starts at evaluation.
	Admission *admission.Gate
	// CaptureFragmentSigs stamps Answer.FragmentSigs on fragment-evaluating
	// strategies — set by the HTTP layer when a workload journal or the
	// /v1/stats aggregator is consuming them.
	CaptureFragmentSigs bool

	shards  int // ≥ 1
	planCap int // plan cache capacity (0: defaultPlanCacheSize)
	// closure is the counting closure behind Sat while data updates and Sat
	// reads alternate (see update.go); nil otherwise. It is the writer's:
	// changed in place between versions, after the Sat lazy of the one it
	// served finished, and read only by the Sat lazies of later versions.
	closure *saturation.Maintained

	// views, when non-nil, is the fragment-level view cache
	// (internal/viewcache), invalidated whenever the derived state is
	// swapped.
	views *viewcache.Cache
}

// New returns an engine over the graph.
func New(g *graph.Graph) *Engine {
	e := &Engine{g: g, shards: 1}
	e.swap(nil, nil, nil)
	return e
}

// Graph returns the graph of the engine's version, the one its answers read.
func (e *Engine) Graph() *graph.Graph { return &e.d.g }

// Warm builds every artefact of the current derived-state version, so that
// no request pays for one.
func (e *Engine) Warm() {
	e.CostModel()
	e.SatCostModel()
	e.Reformulator()
	e.d.incRef()
	e.RangeReformulator()
}

// Store returns the store over explicit data plus the closed schema (the
// database Ref strategies evaluate against), partitioned into the
// subject-hash shards EnableSharding asked for.
func (e *Engine) Store() *shard.Store { return e.d.data().src }

// Source is Store.
func (e *Engine) Source() *shard.Store { return e.Store() }

// EnableSharding hash-partitions the explicit-data store into n shards
// (n < 2: one): a union's co-partitioned members run once per shard, in
// parallel, and every other read goes through the store's plain methods.
// The Sat store reads D through those shards too, never scattered, and
// keeps Δ, the triples saturation adds, in one piece — saturation is the
// paper's baseline.
func (e *Engine) EnableSharding(n int) {
	e.shards = max(n, 1)
	e.swap(e.d, nil, nil)
}

// Stats returns collected statistics over Source().
func (e *Engine) Stats() *stats.Stats { return e.d.data().stats }

// CostModel returns the cost model over Stats().
func (e *Engine) CostModel() *cost.Model { return e.d.model() }

// SatCostModel returns a cost model over the saturated store's statistics
// (the estimates relevant to the Sat strategy's operators).
func (e *Engine) SatCostModel() *cost.Model { return e.d.satModel() }

// Reformulator returns the complete reformulator for the graph's schema.
func (e *Engine) Reformulator() *core.Reformulator { return e.d.ref() }

// RangeReformulator returns the interval-encoding reformulator for the
// graph's schema.
func (e *Engine) RangeReformulator() *core.RangeReformulator { return e.d.rangeRef() }

// Saturation returns G∞ — saturated from scratch before the first data
// update, read off the maintained closure after — as the two parts the
// Sat store reads: the graph's D and Δ, the triples saturation adds.
// Result.Triples merges them on demand.
func (e *Engine) Saturation() *saturation.Result {
	e.d.satRead.Store(true)
	return e.d.sat()
}

// SatStore returns the store over G∞: the data source, which Ref reads
// too, and the store of Δ, read together as one source.
func (e *Engine) SatStore() exec.Source {
	e.d.satRead.Store(true)
	return e.d.satStore()
}

// SatStats returns statistics over the saturated store.
func (e *Engine) SatStats() *stats.Stats { return e.d.satStats() }

// EnableViewCache attaches a fragment-level view cache to the engine, which
// every fragment-evaluating strategy (RefSCQ, RefJUCQ, RefGCov, RefRange)
// consults. The cache inherits the engine's metrics registry unless cfg
// names its own.
func (e *Engine) EnableViewCache(cfg viewcache.Config) {
	if cfg.Metrics == nil {
		cfg.Metrics = e.Metrics
	}
	e.views = viewcache.New(cfg)
	e.d.views = e.views.At(0) // a new cache starts at generation 0
}

// ViewCache returns the attached view cache, nil when disabled.
func (e *Engine) ViewCache() *viewcache.Cache { return e.views }

// SetPlanCacheCapacity resizes the plan cache (default 128), dropping any
// cached plans.
func (e *Engine) SetPlanCacheCapacity(n int) {
	e.planCap = n
	e.d.plans.resize(n)
}

func (e *Engine) fragmentBound() int {
	if e.MaxFragmentCQs > 0 {
		return e.MaxFragmentCQs
	}
	return core.DefaultMaxFragmentCQs
}

// AnswerContext answers q with the given strategy, bounded by ctx; RefJUCQ
// requires a cover via AnswerWithCoverContext. Cancellation (client
// disconnect, server shutdown) aborts the evaluation mid-operator with an
// error wrapping exec.ErrCanceled. The context and the Budget's timeout are
// checked together at every operator checkpoint.
func (e *Engine) AnswerContext(ctx context.Context, q query.CQ, s Strategy) (*Answer, error) {
	return e.answer(ctx, q, s, nil)
}

// AnswerWithCoverContext answers q with the JUCQ induced by the given
// cover, bounded by ctx.
func (e *Engine) AnswerWithCoverContext(ctx context.Context, q query.CQ, cover query.Cover) (*Answer, error) {
	return e.answer(ctx, q, RefJUCQ, cover)
}

// answer is the query lifecycle: prepare, then execute, under one "answer"
// span — the trace root when the tracer is fresh, a child of it when an
// outer layer (HTTP handler) already opened one — and one metrics
// observation.
func (e *Engine) answer(ctx context.Context, q query.CQ, s Strategy, cover query.Cover) (*Answer, error) {
	start := time.Now()
	sp := e.Tracer.StartSpan("answer")
	defer sp.End()
	if sp != nil {
		sp.SetStr("strategy", string(s))
		sp.SetText("query", cqText{e.d.g.Dict(), q})
	}
	var ans *Answer
	p, err := e.prepare(q, s, cover, sp)
	if err == nil {
		e.traceImplied(sp, &p)
		ans, err = e.execute(ctx, &p, sp)
	}
	if sp != nil {
		if err != nil {
			sp.SetStr("error", err.Error())
		} else {
			sp.SetInt("rows", int64(ans.Rows.Len()))
		}
		sp.End()
		e.reportMisestimates(ctx, sp, s, p.key == "" || !p.cachedPlan)
	}
	e.observe(s, start, ans, err, p.key != "")
	return ans, err
}

// cqText is a query's text for a trace, made only when the trace is read.
type cqText struct {
	d *dict.Dict
	q query.CQ
}

func (t cqText) String() string { return query.FormatCQ(t.d, t.q) }

// misestimateFactor is the est-vs-actual deviation beyond which a traced
// operator counts as a cost-model misestimate.
const misestimateFactor = 10.0

// reportMisestimates walks a finished query trace and flags every operator
// whose actual cardinality deviates from the model's estimate by more than
// misestimateFactor: one counter increment per offending node plus, when
// planned says the request made its plan, a single structured warning
// naming the worst one — the direct feedback loop for the paper's cost
// function. A plan out of the cache carries the estimates of the constants
// it was made for, so it misses the same way on every hit: the warning is
// given once per plan, the counter and the q-error histograms count every
// request.
func (e *Engine) reportMisestimates(ctx context.Context, sp *trace.Span, s Strategy, planned bool) {
	if sp == nil || (e.Metrics == nil && e.Logger == nil) {
		return
	}
	type miss struct {
		name     string
		est, act float64
	}
	var worst miss
	worstRatio, count := 0.0, 0
	sp.Visit(func(name string, _ int, _ time.Duration, attrs []trace.Attr) {
		est, act := -1.0, -1.0
		for _, a := range attrs {
			if !a.IsNumber() {
				continue
			}
			switch a.Key {
			case "est_rows":
				est = a.Number()
			case "rows":
				act = a.Number()
			}
		}
		if est < 0 || act < 0 {
			return
		}
		// +1 smoothing keeps empty results comparable (0 est vs 0 actual
		// is a perfect estimate, not a division by zero).
		ratio := (est + 1) / (act + 1)
		if ratio < 1 {
			ratio = 1 / ratio
		}
		// Every pair is a calibration sample: the q-error histograms feed
		// GET /v1/debug/costmodel, which ranks operator types by how badly
		// the model estimates them — not only the >10x outliers.
		if e.Metrics != nil {
			e.Metrics.Histogram("qerror."+name, metrics.DefaultQErrorBuckets...).Observe(ratio)
		}
		if ratio <= misestimateFactor {
			return
		}
		count++
		if ratio > worstRatio {
			worstRatio, worst = ratio, miss{name: name, est: est, act: act}
		}
	})
	if count == 0 {
		return
	}
	if e.Metrics != nil {
		e.Metrics.Counter("cost.misestimate").Add(int64(count))
	}
	if planned && e.Logger != nil {
		attrs := make([]slog.Attr, 0, 7)
		if id, ok := e.Tracer.Root().Attr("requestId"); ok {
			attrs = append(attrs, slog.String("requestId", id.String()))
		}
		e.Logger.LogAttrs(ctx, slog.LevelWarn, "cost misestimate", append(attrs,
			slog.String("strategy", string(s)),
			slog.Int("nodes", count),
			slog.String("worst_op", worst.name),
			slog.Float64("est_rows", worst.est),
			slog.Float64("actual_rows", worst.act),
			slog.Float64("ratio", worstRatio))...)
	}
}

// observe records one answered (or failed) query into the metrics
// registry; a no-op without one. planned says the strategy's preparation
// goes through the plan cache.
func (e *Engine) observe(s Strategy, start time.Time, ans *Answer, err error, planned bool) {
	m := e.Metrics
	if m == nil {
		return
	}
	m.Counter("engine.queries").Inc()
	m.Counter("engine.queries." + string(s)).Inc()
	m.Histogram("engine.latency_ms." + string(s)).
		Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if err != nil {
		m.Counter("engine.errors").Inc()
		switch {
		case errors.Is(err, admission.ErrRejected):
			m.Counter("engine.shed").Inc()
		case errors.Is(err, exec.ErrBudgetExceeded):
			m.Counter("engine.budget_exceeded").Inc()
		case errors.Is(err, exec.ErrCanceled):
			m.Counter("engine.canceled").Inc()
		}
		return
	}
	m.Histogram("engine.reformulation_cqs", metrics.DefaultSizeBuckets...).
		Observe(float64(ans.ReformulationCQs))
	if planned {
		if ans.CachedPlan {
			m.Counter("engine.plancache.hits").Inc()
		} else {
			m.Counter("engine.plancache.misses").Inc()
		}
	}
}

// admit passes one evaluation through the engine's admission gate,
// recording the wait as an "admission" span under the answer span. The
// returned ticket is nil-tolerant: callers defer ticket.Release()
// unconditionally. A nil gate admits immediately with no span.
func (e *Engine) admit(ctx context.Context, sp *trace.Span, estCost float64) (*admission.Ticket, error) {
	if e.Admission == nil {
		return nil, nil
	}
	var asp *trace.Span
	if sp != nil {
		asp = sp.Child("admission")
		defer asp.End()
		asp.SetFloat("est_cost", estCost)
	}
	tkt, err := e.Admission.Acquire(ctx, estCost)
	if asp != nil {
		if err != nil {
			asp.SetStr("error", err.Error())
		} else {
			asp.SetInt("weight", int64(tkt.Weight()))
			asp.SetFloat("wait_ms", float64(tkt.Wait())/float64(time.Millisecond))
		}
		asp.End()
	}
	return tkt, err
}

// observePlanCache records one plan-cache lookup. The lookup-site counters
// (plancache.hit / plancache.miss, exposed as plancache_total{event=...})
// complement the per-successful-answer engine.plancache.* counters in
// observe: a lookup that hits but whose evaluation then fails still counts
// here.
func (e *Engine) observePlanCache(hit bool) {
	if hit {
		e.Metrics.Counter("plancache.hit").Inc()
	} else {
		e.Metrics.Counter("plancache.miss").Inc()
	}
}

// AnswerUnionContext answers a union of BGPs (the full dialect of §3) with
// the given strategy, bounded by ctx: each member is answered — and
// individually metered — independently under the same context, and the
// answers are unioned with set semantics. RefJUCQ is not supported here
// (covers are per-CQ; use AnswerWithCoverContext on the members). The
// union's answer reports its members' sums — CQs, times, queue wait, cached
// fragments, estimated cost — and a cached plan only when every member's
// plan was cached.
func (e *Engine) AnswerUnionContext(ctx context.Context, u query.UCQ, s Strategy) (*Answer, error) {
	if len(u.CQs) == 0 {
		return nil, fmt.Errorf("engine: empty union")
	}
	if s == RefJUCQ {
		return nil, fmt.Errorf("engine: strategy %s needs per-member covers; answer the members individually", s)
	}
	combined := &Answer{Strategy: s, CachedPlan: true}
	rows := exec.NewSet(u.HeadNames)
	for _, cq := range u.CQs {
		ans, err := e.AnswerContext(ctx, cq, s)
		if err != nil {
			return nil, err
		}
		combined.ReformulationCQs += ans.ReformulationCQs
		combined.PrepTime += ans.PrepTime
		combined.EvalTime += ans.EvalTime
		combined.QueueWait += ans.QueueWait
		combined.CachedFragments += ans.CachedFragments
		combined.EstimatedCost += ans.EstimatedCost
		combined.CachedPlan = combined.CachedPlan && ans.CachedPlan
		if ans.AdmissionWeight > combined.AdmissionWeight {
			combined.AdmissionWeight = ans.AdmissionWeight
		}
		rows.Add(ans.Rows)
	}
	combined.Rows = rows.Rows
	return combined, nil
}
