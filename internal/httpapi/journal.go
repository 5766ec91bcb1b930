package httpapi

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file is the workload-telemetry layer: every answered query is
// folded into the in-memory workload aggregator (GET /v1/stats), the
// per-strategy SLO tracker (burn-rate gauges on /metrics) and — when
// enabled — the durable journal (refserve -journal). The q-error
// histograms the engine records per traced operator are rolled up into
// GET /v1/debug/costmodel.

// EnableJournal attaches a durable journal writer; every answered query
// is recorded asynchronously (drops counted in journal.dropped). Call
// before serving; the caller keeps ownership and should Close the writer
// after the HTTP server has shut down.
func (s *Server) EnableJournal(w *journal.Writer) { s.journal = w }

// SetSLO replaces the default latency SLO (500ms at 99%) tracked per
// strategy. Call before serving.
func (s *Server) SetSLO(slo metrics.SLO) {
	s.slo = metrics.NewSLOTracker(slo, s.metrics)
}

// queryRecord carries everything finishQuery needs to account one
// finished (answered or failed) query.
type queryRecord struct {
	req         QueryRequest
	strategy    engine.Strategy
	start       time.Time
	parseMillis float64
	id          string
	root        *trace.Span
	path        string
	sig         string         // canonical query signature (hex)
	ans         *engine.Answer // nil when err != nil
	rows        int
	err         error
}

// finishQuery is the single accounting point for /query requests: the
// request-latency histogram, the SLO tracker, the workload aggregator,
// the durable journal, the slow-query ring and the structured log line
// all observe the same record.
func (s *Server) finishQuery(ctx context.Context, rec queryRecord) {
	total := time.Since(rec.start)
	totalMillis := float64(total) / float64(time.Millisecond)
	s.metrics.Histogram("http.latency_ms." + rec.path).Observe(totalMillis)

	strategy := string(rec.strategy)
	if rec.ans != nil {
		strategy = string(rec.ans.Strategy)
	}
	s.slo.Observe(strategy, totalMillis, rec.err == nil, time.Now())

	e := s.buildJournalEntry(rec, totalMillis, strategy)
	s.workload.Observe(e)
	s.journal.Record(e)

	s.recordSlow(rec, total, e.Outcome)
	s.logQuery(ctx, rec.id, rec.req, rec.strategy, rec.start, rec.rows, rec.err)
}

// outcomeFor maps an answering error onto the journal's closed outcome
// set, reusing the /v1 error classifier so the journal, the error
// envelope and the slowlog never disagree.
func outcomeFor(err error) string {
	if err == nil {
		return journal.OutcomeOK
	}
	switch _, code := classify(err); code {
	case CodeCanceled:
		return journal.OutcomeCanceled
	case CodeBudgetExceeded:
		return journal.OutcomeBudget
	case CodeOverloaded, CodeDraining:
		return journal.OutcomeShed
	default:
		return journal.OutcomeError
	}
}

// buildJournalEntry assembles one journal entry from the answer, the
// request and the finished span tree (phase timings, per-operator
// est-vs-actual pairs, per-fragment cache outcomes).
func (s *Server) buildJournalEntry(rec queryRecord, totalMillis float64, strategy string) journal.Entry {
	e := journal.Entry{
		Time:        rec.start,
		RequestID:   rec.id,
		Path:        rec.path,
		Query:       rec.req.Query,
		Sig:         rec.sig,
		Strategy:    strategy,
		Outcome:     outcomeFor(rec.err),
		Rows:        rec.rows,
		ParseMillis: rec.parseMillis,
		TotalMillis: totalMillis,
	}
	if rec.err != nil {
		e.Err = rec.err.Error()
	}
	if ans := rec.ans; ans != nil {
		e.ReformulationCQs = ans.ReformulationCQs
		e.PrepMillis = float64(ans.PrepTime) / float64(time.Millisecond)
		e.EvalMillis = float64(ans.EvalTime) / float64(time.Millisecond)
		e.EstimatedCost = ans.EstimatedCost
		e.PlanCacheHit = ans.CachedPlan
		e.CachedFragments = ans.CachedFragments
		e.QueueWaitMillis = float64(ans.QueueWait) / float64(time.Millisecond)
		e.AdmissionWeight = ans.AdmissionWeight
		for _, sig := range ans.FragmentSigs {
			e.Fragments = append(e.Fragments, journal.FragmentStat{Sig: sig, EstRows: -1, Rows: -1})
		}
	}
	s.traceIntoEntry(rec.root, &e)
	return e
}

// traceIntoEntry walks the finished span tree once, extracting phase
// timings (reformulate / plan, summed across union members), the plan-cache
// shape and selectivity classes off the span that looked the plan up, one
// OpStat per operator span carrying both est_rows and rows (capped at
// journal.MaxOperators), and per-fragment est/actual/cache-hit matched
// to Entry.Fragments by the fragment span's idx attribute.
func (s *Server) traceIntoEntry(root *trace.Span, e *journal.Entry) {
	if root == nil {
		return
	}
	// Fragment spans appear in evaluation order, which is the plan's, not
	// the cover's; their idx aligns them with Answer.FragmentSigs
	// (single-JUCQ strategies). Answers without sigs drop them.
	root.Visit(func(name string, _ int, dur time.Duration, attrs []trace.Attr) {
		est, act, cacheHit, idx := -1.0, int64(-1), false, -1
		var shape, classes string // on the span that looked the plan up
		for _, a := range attrs {
			if !a.IsNumber() {
				switch a.Key {
				case "shape":
					shape = a.String()
				case "classes":
					classes = a.String()
				}
				continue
			}
			switch a.Key {
			case "est_rows":
				est = a.Number()
			case "rows":
				act = int64(a.Number())
			case "cache_hit":
				cacheHit = a.Number() > 0
			case "idx":
				idx = int(a.Number())
			}
		}
		if shape != "" && e.Shape == "" {
			e.Shape, e.Classes = shape, classes
		}
		switch name {
		case "reformulate":
			e.ReformulateMillis += float64(dur) / float64(time.Millisecond)
		case "plan":
			e.PlanMillis += float64(dur) / float64(time.Millisecond)
		case "fragment":
			if idx >= 0 && idx < len(e.Fragments) {
				f := &e.Fragments[idx]
				f.EstRows, f.Rows, f.CacheHit = est, act, cacheHit
			}
		}
		if est >= 0 && act >= 0 && len(e.Operators) < journal.MaxOperators {
			e.Operators = append(e.Operators, journal.OpStat{Op: name, EstRows: est, Rows: act})
		}
	})
}

// recordSlow feeds the slow-query ring: entries above the threshold, or
// any failed query, now carrying the chosen strategy and final outcome
// so a shed or canceled query is distinguishable from a slow success.
func (s *Server) recordSlow(rec queryRecord, total time.Duration, outcome string) {
	thr := s.slowThreshold()
	if thr <= 0 || (total < thr && rec.err == nil) {
		return
	}
	q := rec.req.Query
	if len(q) > 512 {
		q = q[:512] + "…"
	}
	strategy := string(rec.strategy)
	if rec.ans != nil {
		strategy = string(rec.ans.Strategy)
	}
	entry := metrics.SlowQuery{
		Time:      rec.start,
		Query:     q,
		Strategy:  strategy,
		Millis:    float64(total) / float64(time.Millisecond),
		Rows:      rec.rows,
		RequestID: rec.id,
		Outcome:   outcome,
	}
	if rec.err != nil {
		entry.Err = rec.err.Error()
	}
	if tj := trace.ToJSON(rec.root); tj != nil {
		if b, merr := json.Marshal(tj); merr == nil {
			entry.Trace = b
		}
	}
	s.slowLog.Add(entry)
	s.metrics.Counter("http.slow_queries").Inc()
}

// --- GET /v1/stats workload section ------------------------------------------

// WorkloadStats is the "workload" member of the /v1/stats response: the
// top query and fragment signatures by observed cost — the exact input
// a view-selection advisor mines.
type WorkloadStats struct {
	Summary      journal.Summary           `json:"summary"`
	TopQueries   []journal.QueryStat       `json:"topQueries"`
	TopFragments []journal.FragmentStatAgg `json:"topFragments"`
}

// workloadStats snapshots the aggregator (top 20 of each).
func (s *Server) workloadStats() WorkloadStats {
	ws := WorkloadStats{
		Summary:      s.workload.Summarize(),
		TopQueries:   s.workload.TopQueries(20),
		TopFragments: s.workload.TopFragments(20),
	}
	if ws.TopQueries == nil {
		ws.TopQueries = []journal.QueryStat{}
	}
	if ws.TopFragments == nil {
		ws.TopFragments = []journal.FragmentStatAgg{}
	}
	return ws
}

// --- GET /v1/debug/costmodel -------------------------------------------------

// OperatorCalibration summarizes one operator type's q-error histogram:
// how far off the cost model's cardinality estimates run for that
// operator (q-error = max((est+1)/(act+1), (act+1)/(est+1)); 1 = exact).
type OperatorCalibration struct {
	Op      string  `json:"op"`
	Samples int64   `json:"samples"`
	Mean    float64 `json:"meanQError"`
	P50     float64 `json:"p50QError"`
	P95     float64 `json:"p95QError"`
	Max     float64 `json:"maxQError"`
}

// CostModelResponse is the /v1/debug/costmodel output.
type CostModelResponse struct {
	// Operators is every operator type with q-error samples, worst
	// calibrated (by p95) first.
	Operators []OperatorCalibration `json:"operators"`
	// Worst names the worst-calibrated operator (empty without samples).
	Worst string `json:"worst,omitempty"`
	// Misestimates is the count of >10x est-vs-actual deviations (the
	// cost.misestimate counter).
	Misestimates int64 `json:"misestimates"`
}

// handleCostModel reports cost-model calibration from the qerror.*
// histograms the engine records on every traced query.
func (s *Server) handleCostModel(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	resp := CostModelResponse{
		Operators:    []OperatorCalibration{},
		Misestimates: snap.Counters["cost.misestimate"],
	}
	const prefix = "qerror."
	for name, h := range snap.Histograms {
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix || h.Count == 0 {
			continue
		}
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		resp.Operators = append(resp.Operators, OperatorCalibration{
			Op:      name[len(prefix):],
			Samples: h.Count,
			Mean:    round3(mean),
			P50:     round3(h.P50),
			P95:     round3(h.P95),
			Max:     round3(h.Max),
		})
	}
	sort.Slice(resp.Operators, func(i, j int) bool {
		if resp.Operators[i].P95 != resp.Operators[j].P95 {
			return resp.Operators[i].P95 > resp.Operators[j].P95
		}
		return resp.Operators[i].Op < resp.Operators[j].Op
	})
	if len(resp.Operators) > 0 {
		resp.Worst = resp.Operators[0].Op
	}
	s.writeOK(w, resp)
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
