package engine

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datalog"
	"repro/internal/dict"
	"repro/internal/exec"
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
// shares across requests, and across data changes, hold none, and stand for
// a whole query shape: q and jucq carry parameters where the requests'
// instance constants go (query.Lift). prepare hands each request its own
// copy of a shared value — which is never written to — with the request's
// constants bound in, and binds that copy to the request's version.
type prepared struct {
	key      string // plan-cache key; empty for a plan that is not cached
	strategy Strategy
	q        query.CQ // the request's query; in the plan cache, its shape
	// reduced is q without the atoms the rest of q implies under the
	// schema (core.Reformulator.Reduce), listed in implied: what the
	// strategy plans and evaluates. ref-jucq, whose cover names the posed
	// atoms, and datalog, the oracle the reduction is checked against, keep
	// q. On a plan out of the cache it is the shape's.
	reduced query.CQ
	implied []core.Implied
	// A cached plan's identity in words: the shape as text, parameters as
	// $1, $2, …, and the selectivity class of each atom holding one.
	shape, classes string

	// What to evaluate: exactly one of stream, jucq and program, or none of
	// them — then it is q itself.
	stream  *core.Reformulator // the union of q's reformulations, enumerated lazily
	jucq    *query.JUCQ
	program *datalog.Program
	// frags derives the view-cache keys of jucq's fragments; the request's
	// are kept in fragKeys once something asked for them. fragEsts, shared
	// like frags, are the estimates the planner priced the fragments at.
	frags    *fragmentKeyer
	fragKeys []string
	fragEsts []cost.Estimate
	params   []dict.ID // the request's constants, by parameter slot

	// Against which database: the explicit data plus the closed schema
	// (Source, Stats, CostModel), or G∞ for Sat (SatStore, SatStats,
	// SatCostModel). A Datalog program reads the graph itself and has no
	// src. All nil on a plan in the cache.
	src   exec.Source
	stats *stats.Stats
	model *cost.Model

	// What is known about it.
	cover query.Cover // JUCQ shapes only
	cqs   int         // member CQs evaluated, over all fragments
	// est is the model's estimate of what is evaluated; it stays zero where
	// the model has no price (a lazily enumerated union, the Datalog
	// fixpoint). There the admission gate is charged proxy instead. On a
	// plan out of the cache est and explored are those of the constants the
	// shape was first planned with — in the same selectivity classes as the
	// request's, so within classFactor per parameterized atom.
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
//
// What the JUCQ strategies — ref-range among them — prepare reads the
// schema and the query's shape only, so it goes through the plan cache
// (planned); Sat has nothing to prepare, the UCQ strategies enumerate their
// union lazily and Dat encodes the data itself — nothing schema-only to keep.
//
// The strategies without a cached plan reduce the query here, per request;
// the cached ones once per shape, on a miss of the plan cache (planned).
func (e *Engine) prepare(q query.CQ, s Strategy, cover query.Cover, sp *trace.Span) (prepared, error) {
	p := prepared{strategy: s, q: q, reduced: q, cqs: 1}
	start := time.Now()
	var err error
	switch s {
	case Sat:
		// G∞ is built once per version and shared across queries: a Sat
		// query has no preparation of its own, so took stays zero. Its
		// reduction, under the rules saturation applies, allocates nothing
		// when no atom is implied.
		p.reduced, p.implied = e.Reformulator().Reduce(q)
		p.src, p.stats, p.model = e.SatStore(), e.SatStats(), e.SatCostModel()
		p.est = p.model.CQ(p.reduced)
		return p, nil
	case RefUCQ:
		e.prepareStream(&p, e.Reformulator(), sp)
	case RefIncomplete:
		// Reduced under its own rules, subClassOf and subPropertyOf only,
		// the incomplete strategy misses exactly what it misses posed.
		e.prepareStream(&p, e.d.incRef(), sp)
	case RefSCQ:
		// The SCQ is a fixed strategy: it is built regardless of size, on
		// the singleton cover of the reduced query (planCover).
		err = e.planned(&p, sp, "reformulate", nil, 0, planCover)
	case RefJUCQ:
		if cover == nil {
			return p, fmt.Errorf("engine: strategy %s needs a cover; use AnswerWithCoverContext or PlanWithCover", s)
		}
		err = e.planned(&p, sp, "reformulate", cover, e.fragmentBound(), planCover)
	case RefGCov:
		err = e.planned(&p, sp, "plan", nil, e.fragmentBound(), planGCov)
	case RefRange:
		err = e.planned(&p, sp, "reformulate", nil, 0, planRange)
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
	p.reduced, p.implied = r.Reduce(p.q)
	p.stream = r
	p.cqs, _ = r.CombinationCount(p.reduced)
	rsp.SetInt("cqs", int64(p.cqs))
	p.src, p.stats, p.model = e.Source(), e.Stats(), e.CostModel()
	p.proxy = p.model.CQ(p.reduced).Cost * float64(p.cqs)
}

// planner plans one shape on a miss of the plan cache: it fills t — whose q
// is the shape — with what to evaluate and what is known about it, for the
// given cover and fragment bound where the strategy takes them, pricing with
// m, which reads the missing request's constants through the parameters.
type planner func(e *Engine, t *prepared, cover query.Cover, bound int, m *cost.Model) error

// planCover: the JUCQ a cover induces, each fragment reformulated into at
// most bound CQs (0: unbounded); without a cover, the singleton cover — the
// SCQ.
func planCover(e *Engine, t *prepared, cover query.Cover, bound int, m *cost.Model) error {
	if cover == nil {
		cover = query.SingletonCover(len(t.reduced.Atoms))
	}
	j, err := e.Reformulator().ReformulateJUCQ(t.reduced, cover, bound)
	if err != nil {
		return err
	}
	ests := make([]cost.Estimate, len(j.Fragments))
	for i, f := range j.Fragments {
		ests[i] = m.UCQ(f.UCQ)
	}
	t.setJUCQ(j, ests, m.JoinFragments(ests, nil))
	return nil
}

// planGCov: the JUCQ of the cover the greedy cost-based search chooses —
// tens of milliseconds on a query of Example 1's size.
func planGCov(e *Engine, t *prepared, _ query.Cover, bound int, m *cost.Model) error {
	res, err := core.GCov(e.Reformulator(), m, t.reduced, core.GCovOptions{MaxFragmentCQs: bound})
	if err != nil {
		return err
	}
	t.explored = res.Explored
	t.setJUCQ(res.JUCQ, res.Estimates, cost.Estimate{Cost: res.Cost})
	return nil
}

// planRange: the one-block cover in range form. The query is its own
// fragment, with its own head, so the join projects nothing; the range
// reformulation fills it — a small union of range CQs, one per combination
// of per-atom interval alternatives (a handful, not the thousands of atomic
// CQs ref-ucq enumerates), evaluated with interval-constrained scans plus
// hierarchy expansions.
func planRange(e *Engine, t *prepared, _ query.Cover, _ int, m *cost.Model) error {
	ru := e.RangeReformulator().Reformulate(t.reduced)
	cover := query.OneBlockCover(len(t.reduced.Atoms))
	j := query.JUCQ{HeadNames: ru.HeadNames, Cover: cover, Fragments: []query.Fragment{{
		AtomIndexes: cover[0],
		CQ:          query.NewCQ(ru.HeadNames, t.reduced.Atoms),
		UCQ:         query.UCQ{HeadNames: ru.HeadNames},
		Members:     ru.CQs,
	}}}
	ests := []cost.Estimate{m.RangeUCQ(ru)}
	t.setJUCQ(j, ests, m.JoinFragments(ests, nil))
	return nil
}

// setJUCQ makes j what p evaluates. p's cover is j's own, a copy of the one
// planned with: a plan the cache keeps holds nothing a caller still owns,
// who may reuse or rewrite its cover after the answer.
func (p *prepared) setJUCQ(j query.JUCQ, fragEsts []cost.Estimate, est cost.Estimate) {
	p.jucq, p.cover, p.fragEsts, p.est, p.cqs = &j, j.Cover, fragEsts, est, 0
	for _, f := range j.Fragments {
		p.cqs += fragmentCQs(f)
	}
	p.frags = newFragmentKeyer(&j)
}

// numberPosed renumbers what p planned on its reduced query — the cover, the
// fragments' atoms, the covers GCov explored — by the atoms of the posed
// query, which the implied atoms, meta.cover and EXPLAIN number too.
func (p *prepared) numberPosed() {
	if len(p.implied) == 0 {
		return
	}
	kept := make([]int, 0, len(p.reduced.Atoms))
	for i := range p.q.Atoms {
		if !slices.ContainsFunc(p.implied, func(im core.Implied) bool { return im.Atom == i }) {
			kept = append(kept, i)
		}
	}
	posed := func(atoms []int) []int {
		out := make([]int, len(atoms))
		for k, a := range atoms {
			out[k] = kept[a]
		}
		return out
	}
	renumber := func(c query.Cover) query.Cover {
		out := make(query.Cover, len(c))
		for i, f := range c {
			out[i] = posed(f)
		}
		return out
	}
	p.jucq.Cover = renumber(p.jucq.Cover)
	p.cover = p.jucq.Cover
	for i := range p.jucq.Fragments {
		p.jucq.Fragments[i].AtomIndexes = posed(p.jucq.Fragments[i].AtomIndexes)
	}
	for i := range p.explored {
		p.explored[i].Cover = renumber(p.explored[i].Cover)
	}
}

// fragmentCQs is the size of a fragment's reformulation: its UCQ's, or in
// the range form, which has no UCQ members, its range CQs'.
func fragmentCQs(f query.Fragment) int {
	if len(f.UCQ.CQs) == 0 {
		return len(f.Members)
	}
	return len(f.UCQ.CQs)
}

// classFactor is the width of a selectivity class: two constants share a
// cached plan when the atoms they sit in match numbers of triples within
// the same power of it. A plan is right for any constant and cheapest for
// ones like those its cover was searched on, so a constant in another class
// is another entry of the plan cache, searched and priced on its own.
const classFactor = 4

// selectivityClasses renders the class of each atom of q that shape holds a
// parameter in — the log-bucket of its exact pattern count — dot-separated.
func selectivityClasses(st *stats.Stats, q, shape query.CQ) string {
	var b []byte
	for i, t := range shape.Atoms {
		_, s := t.S.Slot()
		_, o := t.O.Slot()
		if !s && !o {
			continue
		}
		if b != nil {
			b = append(b, '.')
		}
		card := st.PatternCard(q.Atoms[i].Pattern())
		b = strconv.AppendInt(b, int64(math.Log(card+1)/math.Log(classFactor)), 10)
	}
	return string(b)
}

// planKey is the plan-cache key: everything a plan depends on besides the
// schema — strategy, fragment bound, the caller's cover, the shape and its
// selectivity classes.
func planKey(s Strategy, cover query.Cover, bound int, shape query.CQ, classes string) string {
	b := make([]byte, 0, 64+32*len(shape.Atoms))
	b = append(b, s...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(bound), 10)
	if cover != nil {
		b = append(b, cover.String()...)
	}
	arg := func(a query.Arg) {
		slot, isParam := a.Slot()
		switch {
		case a.IsVar():
			b = append(append(b, '?'), a.Var...)
		case isParam:
			b = strconv.AppendInt(append(b, '$'), int64(slot), 10)
		default:
			b = strconv.AppendUint(append(b, '#'), uint64(a.ID), 10)
		}
		b = append(b, ' ')
	}
	b = append(b, '|')
	for _, h := range shape.Head {
		arg(h)
	}
	b = append(b, '|')
	for _, t := range shape.Atoms {
		arg(t.S)
		arg(t.P)
		arg(t.O)
	}
	b = append(b, '|')
	b = append(b, classes...)
	return string(b)
}

// planned prepares p through the plan cache, under a span of the given name:
// the one get and the one put. The key is p.q's shape — every constant no
// reformulation rule reads lifted into a parameter — plus the selectivity
// class of each parameterized atom; a miss reduces the shape (but for
// ref-jucq), plans it, pricing on the request's constants, and keeps the
// outcome, which holds nothing of any version's data; hit or miss, the
// request gets a copy with its own constants bound in, bound to this
// version's data, so a hit pays nothing for the reduction.
func (e *Engine) planned(p *prepared, sp *trace.Span, span string, cover query.Cover, bound int, plan planner) error {
	psp := sp.Child(span)
	defer psp.End()
	shape, params := query.Lift(p.q, e.d.typeID)
	classes := selectivityClasses(e.Stats(), p.q, shape)
	key := planKey(p.strategy, cover, bound, shape, classes)
	hit, cached := e.d.plans.get(key)
	e.observePlanCache(cached)
	if !cached {
		hit = &prepared{
			key: key, strategy: p.strategy, q: shape, reduced: shape,
			shape: query.FormatCQ(e.d.g.Dict(), shape), classes: classes,
		}
		if p.strategy != RefJUCQ {
			hit.reduced, hit.implied = e.Reformulator().Reduce(shape)
		}
		if err := plan(e, hit, cover, bound, e.CostModel().Bind(params)); err != nil {
			return err
		}
		hit.numberPosed()
		e.Metrics.Counter("engine.plancache.evictions").Add(int64(e.d.plans.put(hit)))
	}
	q := p.q
	*p = *hit
	p.q, p.params, p.cachedPlan = q, params, cached
	p.bind()
	p.src, p.stats, p.model = e.Source(), e.Stats(), e.CostModel()
	if psp != nil {
		psp.SetStr("shape", p.shape)
		psp.SetStr("classes", p.classes)
		psp.SetBool("cached", cached)
		psp.SetText("cover", &hit.cover) // the plan's own, never written
		psp.SetInt("cqs", int64(p.cqs))
		psp.SetFloat("est_cost", p.est.Cost)
		if p.explored != nil {
			psp.SetInt("explored", int64(len(p.explored)))
		}
	}
	return nil
}

// bind substitutes the request's constants for the parameters in what p
// evaluates: of a fragment, its CQ and its merged members (Fragment.Bind).
// A fragment that holds no parameter — and everything, when the query has no
// liftable constant — stays the cache's own, shared and never written; any
// other is copied, one allocation for all its members' atoms.
func (p *prepared) bind() {
	if len(p.params) == 0 {
		return
	}
	j := *p.jucq
	j.Fragments = make([]query.Fragment, len(p.jucq.Fragments))
	for i, f := range p.jucq.Fragments {
		if len(p.frags.slots[i]) > 0 {
			f = f.Bind(p.params)
		}
		j.Fragments[i] = f
	}
	p.jucq = &j
}

// fragmentKeyer derives the view-cache keys of a cached JUCQ plan's
// fragments. A fragment is keyed by its query, canonicalized on the shape,
// once per plan and only when something first asks for keys (an attached
// view cache, a consumer of Answer.FragmentSigs); a request's key is then a
// hash of that signature and the constants it binds in the fragment.
type fragmentKeyer struct {
	slots [][]int         // per fragment, the parameter slots occurring in it
	sigs  func() []string // per fragment, viewcache.Signature of its shape
}

func newFragmentKeyer(shape *query.JUCQ) *fragmentKeyer {
	k := &fragmentKeyer{slots: make([][]int, len(shape.Fragments))}
	for i, f := range shape.Fragments {
		// The parameters of a fragment are those of its query's atoms.
		for _, t := range f.CQ.Atoms {
			for _, a := range [2]query.Arg{t.S, t.O} {
				if slot, ok := a.Slot(); ok {
					k.slots[i] = append(k.slots[i], slot)
				}
			}
		}
	}
	k.sigs = sync.OnceValue(func() []string {
		sigs := make([]string, len(shape.Fragments))
		for i, f := range shape.Fragments {
			sigs[i] = viewcache.Signature(f.CQ)
		}
		return sigs
	})
	return k
}

// fragmentPlans returns what the evaluator is told about the fragments of
// p's JUCQ: the estimates they were planned with and, keyed, their
// view-cache keys.
func (p *prepared) fragmentPlans(keyed bool) []exec.FragmentPlan {
	plans := make([]exec.FragmentPlan, len(p.fragEsts))
	for i := range plans {
		plans[i].Est = p.fragEsts[i]
		if keyed {
			plans[i].Key = p.fragmentKeys()[i]
		}
	}
	return plans
}

// fragmentKeys returns the view-cache key of each fragment of p's JUCQ.
func (p *prepared) fragmentKeys() []string {
	if p.fragKeys == nil {
		p.fragKeys = make([]string, len(p.frags.slots))
		for i, sig := range p.frags.sigs() {
			p.fragKeys[i] = viewcache.BoundSignature(sig, p.params, p.frags.slots[i])
		}
	}
	return p.fragKeys
}

// prepareDatalog: graph, constraints and query encoded as one program. The
// fixpoint touches the whole graph whatever the query, so the data size is
// the natural cost proxy.
func (e *Engine) prepareDatalog(p *prepared, sp *trace.Span) error {
	rsp := sp.Child("reformulate")
	defer rsp.End()
	p.program = datalog.EncodeGraph(&e.d.g)
	if err := datalog.AddQuery(p.program, p.q); err != nil {
		return err
	}
	rsp.SetInt("rules", int64(len(p.program.Rules)))
	p.proxy = float64(e.d.g.DataCount())
	return nil
}

// execute answers a prepared query: admission, evaluator, view cache, the
// "eval" span, the Answer. Queue wait counts against neither the budget
// (its clock starts at evaluation) nor EvalTime.
func (e *Engine) execute(ctx context.Context, p *prepared, sp *trace.Span) (*Answer, error) {
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
	// Traced, the evaluator records its operators under an "eval" span, with
	// the model's estimates inside conjunctive bodies. The plan hands over
	// what is known of each fragment: the estimate that orders the fragment
	// joins and decides which fragments are probed, and that a trace records;
	// with the view cache, the key and a miss's admission price.
	es := sp.Child("eval")
	defer es.End()
	if es != nil {
		ev.Span, ev.Cost = es, p.model
	}
	var cs *exec.CacheStats
	if e.d.views != nil && p.jucq != nil {
		cs = &exec.CacheStats{}
		ev.FragCache, ev.CacheStats = e.d.views, cs
	}
	if p.jucq != nil {
		ev.Fragments = p.fragmentPlans(cs != nil)
	}
	start := time.Now()
	rows, err := e.eval(ctx, p, ev)
	if err != nil {
		return nil, err
	}
	es.SetInt("rows", int64(rows.Len()))
	es.End()
	ans := &Answer{
		Strategy: p.strategy, Rows: rows, Cover: p.cover, ReformulationCQs: p.cqs,
		PrepTime: p.took, EvalTime: time.Since(start),
		Explored: p.explored, EstimatedCost: p.est.Cost, CachedPlan: p.cachedPlan,
	}
	if cs != nil {
		ans.CachedFragments = cs.Hits
	}
	if e.CaptureFragmentSigs && p.jucq != nil {
		keys := p.fragmentKeys()
		ans.FragmentSigs = make([]string, len(keys))
		for i, key := range keys { // hex, for JSON and the journal
			ans.FragmentSigs[i] = hex.EncodeToString([]byte(key))
		}
	}
	if tkt != nil {
		ans.QueueWait, ans.AdmissionWeight = tkt.Wait(), tkt.Weight()
	}
	return ans, nil
}

// eval evaluates what p says to evaluate, on ev.
func (e *Engine) eval(ctx context.Context, p *prepared, ev *exec.Evaluator) (*exec.Relation, error) {
	switch {
	case p.jucq != nil:
		return ev.EvalJUCQContext(ctx, *p.jucq)
	case p.stream != nil:
		return ev.EvalUCQStreamContext(ctx, query.HeadVarNames(p.q), func(fn func(query.CQ) bool) {
			p.stream.EnumerateCQ(p.reduced, fn)
		})
	case p.program != nil:
		return runDatalog(ctx, p.program, query.HeadVarNames(p.q), e.Budget.Timeout)
	default:
		return ev.EvalCQContext(ctx, query.HeadVarNames(p.q), p.reduced)
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
	// The fixpoint holds each tuple of a predicate once: the answers are
	// distinct as they are.
	rows := exec.NewRelation(head)
	for _, t := range eng.Tuples(datalog.AnswerPred) {
		rows.Append(t)
	}
	return rows, nil
}
