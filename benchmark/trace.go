package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/saturation"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The traced run. Spans are recorded only here, in the benchmark, around
// public entry points of the layers. The server is a black box between
// ServeHTTP's start and end, so each op is first served by the live stack
// (the httpapi.serve / httpapi.update span) and then taken apart on a
// second, identically booted stack — the shadow — by calling the layers in
// the order the server calls them. Running the parts on the shadow keeps
// them from hitting a cache the live request has just filled, and keeps
// the live stack's counters and caches those of an untraced server.
//
// A span's parent is the call it is part of, not a span that encloses it in
// time: engine.answer is a part of httpapi.serve although it runs after it.
// A layer's self time is the time of its spans minus the time of their
// child spans.

// span is one recorded call. Start and End are nanoseconds since the traced
// round began; Parent indexes the span list (-1: the op's root); Op numbers
// the ops.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer owns the shadow stack and holds the spans in memory until the run
// ends.
type tracer struct {
	w      workload
	shadow *stack
	// maint is the benchmark's own maintained closure over the shadow's
	// graph, for timing saturation maintenance apart from the rest of an
	// update (durable workloads only).
	maint *saturation.Maintained
	log   *slog.Logger
	// ref measures the machine's speed around what the tracer times on its
	// own; bootSpeed is the speed while the shadow booted.
	ref       *reference
	bootSpeed float64

	origin time.Time
	spans  []span
	op     int
	// plans remembers, per query text, the JUCQ the cover search chose, so
	// that an op answered from the plan cache can still be evaluated.
	plans map[string]query.JUCQ
}

func newTracer(w workload, triples []rdf.Triple, dir string, ref *reference) (*tracer, error) {
	var (
		sh  *stack
		err error
	)
	speed := ref.around(func() { sh, err = boot(w, triples, dir) })
	if err != nil {
		return nil, fmt.Errorf("shadow stack: %w", err)
	}
	t := &tracer{
		w: w, shadow: sh, log: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		ref: ref, bootSpeed: speed, plans: map[string]query.JUCQ{},
	}
	if w.durable {
		t.maint = saturation.NewMaintained(sh.g)
	}
	return t, nil
}

// start drops the spans recorded so far and makes now the origin.
func (t *tracer) start() { t.origin, t.spans, t.op = time.Now(), t.spans[:0], 0 }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.origin)) }

// decompose records the live op's span and replays the op on the shadow,
// layer by layer. It is the runner's after hook.
func (t *tracer) decompose(o *op, start time.Time, lat time.Duration) {
	t.op++
	name := "httpapi.serve"
	if !o.isQuery() {
		name = "httpapi.update"
	}
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.origin)), End: int64(start.Sub(t.origin) + lat),
		Parent: -1, Op: t.op,
	})
	root := len(t.spans) - 1
	if o.isQuery() {
		t.decomposeQuery(root, o)
	} else {
		t.decomposeUpdate(root, o)
	}
}

func (t *tracer) decomposeQuery(root int, o *op) {
	ctx := context.Background()
	sp := t.begin("query.parse", root)
	q, err := query.ParseRuleWithPrefixes(t.shadow.g.Dict(), prefixes, o.text)
	t.end(sp)
	if err != nil {
		return // the live op failed the same way and is counted there
	}
	strategy := engine.Strategy(o.strategy)
	if strategy == "" {
		strategy = engine.RefGCov
	}
	// The per-request engine view, as serveQuery makes it.
	eng := *t.shadow.srv.Engine()
	eng.Budget = exec.Budget{Timeout: t.shadow.srv.Timeout}
	eng.Logger = t.log
	eng.Tracer = trace.New(0)
	asp := t.begin("engine.answer", root)
	ans, err := eng.AnswerContext(ctx, q, strategy)
	t.end(asp)
	if err != nil {
		return
	}

	// The parts of the answer, each on its own.
	if t.w.durable {
		// After an update the server's engine has no store and no
		// statistics, and every request's view of it rebuilds both.
		fresh := *t.shadow.srv.Engine()
		sp = t.begin("engine.rebuild", asp)
		fresh.Store()
		fresh.Stats()
		t.end(sp)
	}
	newEval := func(src exec.Source, ss *stats.Stats) *exec.Evaluator {
		ev := exec.New(src, ss)
		ev.Budget = eng.Budget
		return ev
	}
	switch strategy {
	case engine.RefGCov:
		search := func() (*core.GCovResult, error) {
			return core.GCov(eng.Reformulator(), eng.CostModel(), q, core.GCovOptions{})
		}
		jucq, known := t.plans[o.text]
		switch {
		case !ans.CachedPlan:
			gsp := t.begin("core.gcov", asp)
			res, err := search()
			t.end(gsp)
			if err != nil {
				return
			}
			sp = t.begin("core.reformulate", gsp)
			_, err = eng.Reformulator().ReformulateJUCQ(q, res.Cover, core.DefaultMaxFragmentCQs)
			t.end(sp)
			if err != nil {
				return
			}
			jucq = res.JUCQ
		case !known:
			// Planned before the traced round: search once more, untimed,
			// for the plan the evaluation below needs.
			res, err := search()
			if err != nil {
				return
			}
			jucq = res.JUCQ
		}
		t.plans[o.text] = jucq
		ev := newEval(eng.Source(), eng.Stats())
		if ans.CachedFragments > 0 {
			// The answer came from materialized fragments; so must this.
			ev.FragCache = eng.ViewCache()
			ev.Cost = eng.CostModel()
			ev.CacheStats = &exec.CacheStats{}
		}
		sp = t.begin("exec.eval", asp)
		_, err = ev.EvalJUCQContext(ctx, jucq)
		t.end(sp)
	case engine.Sat:
		ev := newEval(eng.SatStore(), eng.SatStats())
		sp = t.begin("exec.eval", asp)
		_, err = ev.EvalCQContext(ctx, query.HeadVarNames(q), q)
		t.end(sp)
	case engine.RefRange:
		sp = t.begin("core.reformulate", asp)
		ru := eng.RangeReformulator().Reformulate(q)
		t.end(sp)
		ev := newEval(eng.Source(), nil)
		sp = t.begin("exec.eval", asp)
		_, err = ev.EvalRangeUCQContext(ctx, ru)
		t.end(sp)
	}
	_ = err // an evaluation error shows as a failed live op
}

func (t *tracer) decomposeUpdate(root int, o *op) {
	eng := t.shadow.srv.Engine()
	usp := t.begin("engine.update_apply", root)
	var err error
	if o.insert {
		err = eng.InsertData(o.triples)
	} else {
		_, err = eng.DeleteData(o.triples)
	}
	t.end(usp)
	if err != nil {
		return
	}
	d := t.shadow.g.Dict()
	enc := make([]dict.Triple, len(o.triples))
	for i, tr := range o.triples {
		enc[i] = d.EncodeTriple(tr)
	}
	// What the engine's own closure did inside InsertData / DeleteData.
	sp := t.begin("saturation.maintain", usp)
	if o.insert {
		t.maint.Insert(enc)
	} else {
		t.maint.Delete(enc)
	}
	t.maint.Triples()
	t.end(sp)
	kind := durable.OpDelete
	if o.insert {
		kind = durable.OpInsert
	}
	sp = t.begin("durable.stage_ack", root)
	err = t.shadow.mgr.Append(durable.Record{Op: kind, Triples: o.triples})
	t.end(sp)
	_ = err // a failing disk fails the live op too
}

// totals sums, per span name, the time of its spans and the time of their
// child spans.
func (t *tracer) totals() (total, children map[string]time.Duration, count map[string]int) {
	total, children, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		count[s.Name]++
		if s.Parent >= 0 {
			children[t.spans[s.Parent].Name] += d
		}
	}
	return total, children, count
}

// layerShares reports each layer's self time as a share of the time of all
// root spans. A span name's layer is the part before the dot.
func (t *tracer) layerShares() map[string]float64 {
	total, children, _ := t.totals()
	all := total["httpapi.serve"] + total["httpapi.update"]
	out := map[string]float64{}
	if all == 0 {
		return out
	}
	for name, d := range total {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += float64(max(d-children[name], 0)) / float64(all)
	}
	return out
}

// write stores the spans and the layer shares under dir.
func (t *tracer) write(dir string, seed int64) error {
	raw, err := json.Marshal(struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		LayerShares map[string]float64 `json:"layer_self_time_shares"`
		Spans       []span             `json:"spans"`
	}{t.w.name, seed, t.layerShares(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.w.name+".json"), raw, 0o644)
}

// setupParts times, each on its own, the layers set-up goes through after
// graph.FromTriples, and two fixed scan probes over the built store. Times
// are on a machine of nominal speed.
func (t *tracer) setupParts() map[string]float64 {
	g := t.shadow.g
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := map[string]float64{"graph.from_triples_ms": ms(t.shadow.fromTriples) * t.bootSpeed}
	var store *storage.Store
	out["storage.build_ms"] = ms(t.ref.normalized(func() { store = storage.Build(g.Dict(), g.AllTriples()) }))
	out["stats.collect_ms"] = ms(t.ref.normalized(func() { stats.Collect(store) }))
	out["saturation.saturate_ms"] = ms(t.ref.normalized(func() { saturation.Saturate(g) }))
	var scanNs, rangeNs float64
	speed := t.ref.around(func() { scanNs, rangeNs = scanProbes(store) })
	out["storage.scan_ns_per_row"], out["storage.range_scan_ns_per_row"] = scanNs*speed, rangeNs*speed
	return out
}

// scanProbes times a fixed set of index scans: every property's extent over
// POS and the first thousand subjects' triples over SPO through Store.Scan,
// and every class subtree's instances through a range scan on the
// interval-encoded rdf:type objects.
func scanProbes(store *storage.Store) (scanNs, rangeNs float64) {
	d := store.Dict()
	var props, subjects []dict.ID
	seenP, seenS := map[dict.ID]bool{}, map[dict.ID]bool{}
	for _, tr := range store.Triples() {
		if !seenP[tr.P] {
			seenP[tr.P] = true
			props = append(props, tr.P)
		}
		if !seenS[tr.S] && len(subjects) < 1000 {
			seenS[tr.S] = true
			subjects = append(subjects, tr.S)
		}
	}
	const reps = 3
	rows := 0
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, p := range props {
			rows += len(store.Scan(storage.Pattern{P: p}))
		}
		for _, s := range subjects {
			rows += len(store.Scan(storage.Pattern{S: s}))
		}
	}
	if rows > 0 {
		scanNs = float64(time.Since(t0)) / float64(rows)
	}
	typeID, ok := d.Lookup(rdf.Type)
	if !ok {
		return scanNs, 0
	}
	var classes []storage.IDRange
	seenC := map[dict.ID]bool{}
	for _, tr := range store.Scan(storage.Pattern{P: typeID}) {
		if iv, ok := d.Interval(tr.O); ok && !seenC[tr.O] {
			seenC[tr.O] = true
			classes = append(classes, storage.IDRange{Lo: iv.Lo, Hi: iv.Hi})
		}
	}
	rows = 0
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, c := range classes {
			store.EachRange(storage.RangePattern{P: []storage.IDRange{storage.Exact(typeID)}, O: []storage.IDRange{c}},
				func(dict.Triple) bool { rows++; return true })
		}
	}
	if rows > 0 {
		rangeNs = float64(time.Since(t0)) / float64(rows)
	}
	return scanNs, rangeNs
}
