package engine

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datalog"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

// prepared says how one strategy answers one query on one version of the
// derived state: what is evaluated, against which database, and what is
// known about it beforehand. Every technique of the paper is one such
// choice — a reformulation q' with q'(G) = q(G∞), or the plain q on another
// database. Engine.prepare is the only place a Strategy is interpreted;
// execute (answering) and explain (EXPLAIN) both consume the value it
// returns, so the two cannot drift apart.
//
// A request's prepared holds pointers into the version it was built on (src,
// stats, model) and lives as long as the request. The ones the plan cache
// shares across requests, and across data changes, hold none: prepare hands
// each request its own copy of a shared value — which is never written to —
// and binds that copy to the request's version.
type prepared struct {
	key      string // plan-cache key; empty for a plan that is not cached
	strategy Strategy
	q        query.CQ

	// What to evaluate: exactly one of stream, jucq, ranges and program, or
	// none of them — then it is q itself.
	stream  *core.Reformulator // the union of q's reformulations, enumerated lazily
	jucq    *query.JUCQ
	ranges  *query.RangeUCQ
	program *datalog.Program
	// fragKeys are the view-cache signatures of jucq's fragments, aligned
	// positionally; set on cached plans only. The plan — and its
	// reformulated fragment UCQs — is reused verbatim across executions, so
	// the canonicalization behind each signature (microseconds per member
	// CQ, over hundreds of member CQs) is paid once per plan instead of once
	// per execution.
	fragKeys []string

	// Against which database: the explicit data plus the closed schema
	// (Source, Stats, CostModel), or G∞ for Sat (SatStore, SatStats,
	// SatCostModel). A Datalog program reads the graph itself and has no
	// src; a range union counts exactly from the indexes and has no stats,
	// and no model until it is priced. All nil on a plan in the cache.
	src   exec.Source
	stats *stats.Stats
	model *cost.Model

	// What is known about it.
	cover query.Cover // JUCQ shapes only
	cqs   int         // member CQs evaluated, over all fragments
	// est is the model's estimate of what is evaluated; it stays zero where
	// the model has no price (a lazily enumerated union, the Datalog
	// fixpoint). There the admission gate is charged proxy instead.
	est        cost.Estimate
	proxy      float64
	explored   []core.Explored // the cover space GCov explored
	cachedPlan bool            // this copy came out of the plan cache
	// took is the reformulation / cover search / program encoding time of
	// this request (Answer.PrepTime).
	took time.Duration
}

// prepare interprets strategy s for q: it reformulates, searches or looks
// up the cover, encodes the program — whatever s needs before anything is
// evaluated — and records that work as a "reformulate" (or, for the cover
// search, "plan") span under sp. The cover is the caller's, for RefJUCQ.
func (e *Engine) prepare(q query.CQ, s Strategy, cover query.Cover, sp *trace.Span) (prepared, error) {
	p := prepared{strategy: s, q: q, cqs: 1}
	start := time.Now()
	var err error
	switch s {
	case Sat:
		// G∞ is shared across queries and reported by SaturationTime: a Sat
		// query has no preparation of its own, so took stays zero.
		p.src, p.stats, p.model = e.SatStore(), e.SatStats(), e.SatCostModel()
		p.est = p.model.CQ(q)
		return p, nil
	case RefUCQ:
		e.prepareStream(&p, e.Reformulator(), sp)
	case RefIncomplete:
		e.prepareStream(&p, e.IncompleteReformulator(), sp)
	case RefSCQ:
		// The SCQ is a fixed strategy: it is built regardless of size.
		err = e.prepareCover(&p, query.SingletonCover(len(q.Atoms)), 0, sp)
	case RefJUCQ:
		if cover == nil {
			return p, fmt.Errorf("engine: strategy %s needs a cover; use AnswerWithCover or PlanWithCover", s)
		}
		err = e.prepareCover(&p, cover, e.fragmentBound(), sp)
	case RefGCov:
		err = e.prepareGCov(&p, sp)
	case RefRange:
		e.prepareRange(&p, sp)
	case Dat:
		err = e.prepareDatalog(&p, sp)
	default:
		return p, fmt.Errorf("engine: unknown strategy %q", s)
	}
	p.took = time.Since(start)
	return p, err
}

// prepareStream: the fixed UCQ reformulations. The union is enumerated
// lazily — Example 1's has hundreds of thousands of members — so there is
// no plan to price; a per-CQ estimate times the member count is the natural
// upper-bound proxy for admission.
func (e *Engine) prepareStream(p *prepared, r *core.Reformulator, sp *trace.Span) {
	rsp := sp.Child("reformulate")
	defer rsp.End()
	p.stream = r
	p.cqs, _ = r.CombinationCount(p.q)
	rsp.SetInt("cqs", int64(p.cqs))
	e.onExplicitData(p)
	p.proxy = p.model.CQ(p.q).Cost * float64(p.cqs)
}

// prepareCover: the JUCQ a cover induces, each fragment reformulated into
// at most bound CQs (0: unbounded).
func (e *Engine) prepareCover(p *prepared, cover query.Cover, bound int, sp *trace.Span) error {
	rsp := sp.Child("reformulate")
	defer rsp.End()
	if rsp != nil {
		rsp.SetStr("cover", cover.String())
	}
	j, err := e.Reformulator().ReformulateJUCQ(p.q, cover, bound)
	if err != nil {
		return err
	}
	e.onExplicitData(p)
	p.setJUCQ(j, cover, p.model.JUCQ(j))
	rsp.SetInt("cqs", int64(p.cqs))
	rsp.SetFloat("est_cost", p.est.Cost)
	return nil
}

// onExplicitData points p at the database the Ref strategies evaluate
// against: the explicit data plus the closed schema.
func (e *Engine) onExplicitData(p *prepared) {
	p.src, p.stats, p.model = e.Source(), e.Stats(), e.CostModel()
}

func (p *prepared) setJUCQ(j query.JUCQ, cover query.Cover, est cost.Estimate) {
	p.jucq, p.cover, p.est, p.cqs = &j, cover, est, 0
	for _, f := range j.Fragments {
		p.cqs += len(f.UCQ.CQs)
	}
}

// prepareGCov: the JUCQ of the cover the greedy cost-based search chooses.
// The search costs tens of milliseconds, so its outcome is kept in the
// plan cache, keyed by the query text; what is kept there is bound to no
// version's data, and a hit is bound to this one's exactly as a miss is.
func (e *Engine) prepareGCov(p *prepared, sp *trace.Span) error {
	psp := sp.Child("plan")
	defer psp.End()
	key := query.FormatCQ(e.g.Dict(), p.q)
	hit, cached := e.d.plans.get(key)
	e.observePlanCache(cached)
	if cached {
		*p = *hit
		p.cachedPlan = true
	}
	e.onExplicitData(p)
	if !cached {
		res, err := core.GCov(e.Reformulator(), p.model, p.q, core.GCovOptions{MaxFragmentCQs: e.fragmentBound()})
		if err != nil {
			return err
		}
		p.key, p.explored = key, res.Explored
		p.setJUCQ(res.JUCQ, res.Cover, cost.Estimate{Cost: res.Cost})
		p.fragKeys = make([]string, len(res.JUCQ.Fragments))
		for i, f := range res.JUCQ.Fragments {
			p.fragKeys[i] = viewcache.Signature(f.UCQ)
		}
		shared := *p
		shared.src, shared.stats, shared.model = nil, nil, nil
		evicted := e.d.plans.put(&shared)
		e.Metrics.Counter("engine.plancache.evictions").Add(int64(evicted))
	}
	if psp != nil {
		psp.SetBool("cached", cached)
		psp.SetStr("cover", p.cover.String())
		psp.SetFloat("est_cost", p.est.Cost)
		psp.SetInt("explored", int64(len(p.explored)))
	}
	return nil
}

// prepareRange: the range reformulation — a small union of range CQs, one
// per combination of per-atom interval alternatives (a handful, not the
// thousands of atomic CQs ref-ucq enumerates), evaluated with
// interval-constrained scans plus hierarchy expansions.
func (e *Engine) prepareRange(p *prepared, sp *trace.Span) {
	rsp := sp.Child("reformulate")
	defer rsp.End()
	ru := e.RangeReformulator().Reformulate(p.q)
	p.ranges, p.cqs, p.src = &ru, len(ru.CQs), e.Source()
	if rsp != nil {
		e.price(p)
		rsp.SetInt("cqs", int64(len(ru.CQs)))
		rsp.SetInt("range_atoms", int64(ru.RangeAtoms()))
		rsp.SetInt("expansions", int64(ru.Expansions()))
		rsp.SetFloat("est_cost", p.est.Cost)
	}
	if m := e.Metrics; m != nil {
		m.Counter("rangeref.queries").Inc()
		m.Histogram("rangeref.cqs", metrics.DefaultSizeBuckets...).
			Observe(float64(len(ru.CQs)))
		m.Counter("rangeref.range_atoms").Add(int64(ru.RangeAtoms()))
		m.Counter("rangeref.expansions").Add(int64(ru.Expansions()))
	}
}

// price estimates a range union, the one shape prepare leaves unpriced:
// evaluating it needs no statistics, so the estimate is only made when
// something consumes it — a trace, the admission gate, EXPLAIN.
func (e *Engine) price(p *prepared) {
	if p.ranges != nil && p.model == nil {
		p.model = e.CostModel()
		p.est = p.model.RangeUCQ(*p.ranges)
	}
}

// prepareDatalog: graph, constraints and query encoded as one program. The
// fixpoint touches the whole graph whatever the query, so the data size is
// the natural cost proxy.
func (e *Engine) prepareDatalog(p *prepared, sp *trace.Span) error {
	rsp := sp.Child("reformulate")
	defer rsp.End()
	p.program = datalog.EncodeGraph(e.g)
	if err := datalog.AddQuery(p.program, p.q); err != nil {
		return err
	}
	rsp.SetInt("rules", int64(len(p.program.Rules)))
	p.proxy = float64(e.g.DataCount())
	return nil
}

// execute answers a prepared query: admission, evaluator, view cache, the
// "eval" span, the Answer. Queue wait counts against neither the budget
// (its clock starts at evaluation) nor EvalTime.
func (e *Engine) execute(ctx context.Context, p *prepared, sp *trace.Span) (*Answer, error) {
	if e.Admission != nil {
		e.price(p)
	}
	charge := p.est.Cost
	if p.proxy > 0 {
		charge = p.proxy
	}
	tkt, err := e.admit(ctx, sp, charge)
	if err != nil {
		return nil, err
	}
	defer tkt.Release()
	ev := exec.New(p.src, p.stats)
	ev.Budget = e.Budget
	ev.Metrics = e.Metrics
	ev.MaxParallel = tkt.Weight()
	cs := e.attachViewCache(ev, p)
	es := startEval(sp, ev, p.model)
	defer es.End()
	start := time.Now()
	rows, err := e.eval(ctx, p, ev)
	if err != nil {
		return nil, err
	}
	endEval(es, rows)
	ans := &Answer{
		Strategy: p.strategy, Rows: rows, Cover: p.cover, ReformulationCQs: p.cqs,
		PrepTime: p.took, EvalTime: time.Since(start),
		Explored: p.explored, EstimatedCost: p.est.Cost, CachedPlan: p.cachedPlan,
	}
	if cs != nil {
		ans.CachedFragments = int(cs.Hits.Load())
	}
	if e.CaptureFragmentSigs && p.jucq != nil {
		ans.FragmentSigs = p.fragmentSigs()
	}
	stampAdmission(ans, tkt)
	return ans, nil
}

// eval evaluates what p says to evaluate, on ev.
func (e *Engine) eval(ctx context.Context, p *prepared, ev *exec.Evaluator) (*exec.Relation, error) {
	switch {
	case p.jucq != nil:
		return ev.EvalJUCQContext(ctx, *p.jucq)
	case p.ranges != nil:
		return ev.EvalRangeUCQContext(ctx, *p.ranges)
	case p.stream != nil:
		return ev.EvalUCQStreamContext(ctx, query.HeadVarNames(p.q), func(fn func(query.CQ) bool) {
			p.stream.EnumerateCQ(p.q, fn)
		})
	case p.program != nil:
		return runDatalog(ctx, p.program, query.HeadVarNames(p.q), e.Budget.Timeout)
	default:
		return ev.EvalCQContext(ctx, query.HeadVarNames(p.q), p.q)
	}
}

// runDatalog runs the program to fixpoint and reads the answers off it.
// The exec strategies convert Budget.Timeout into a guard deadline; the
// Datalog fixpoint has no guard, so the budget is carried as a context
// deadline instead and RunContext's per-round poll enforces it.
func runDatalog(ctx context.Context, prog *datalog.Program, head []string, timeout time.Duration) (*exec.Relation, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	eng, err := datalog.RunContext(ctx, prog)
	if err != nil {
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			return nil, fmt.Errorf("%w: timeout: %v", exec.ErrBudgetExceeded, err)
		case ctx.Err() != nil:
			return nil, fmt.Errorf("%w: %v", exec.ErrCanceled, err)
		}
		return nil, err
	}
	rows := exec.NewRelation(head)
	for _, t := range eng.Tuples(datalog.AnswerPred) {
		rows.Append(t)
	}
	rows.Distinct()
	return rows, nil
}

// fragmentSigs returns the view-cache signature of each JUCQ fragment,
// hex-encoded for JSON and the journal. A cached plan reuses its
// precomputed keys, so the warm path pays only the encoding.
func (p *prepared) fragmentSigs() []string {
	out := make([]string, len(p.jucq.Fragments))
	for i, f := range p.jucq.Fragments {
		var key string
		if i < len(p.fragKeys) {
			key = p.fragKeys[i]
		} else {
			key = viewcache.Signature(f.UCQ)
		}
		out[i] = hex.EncodeToString([]byte(key))
	}
	return out
}
