// Package httpapi exposes a graph as an RDF endpoint over HTTP — the
// deployment setting of §1 (Linked Open Data sources answering remote
// queries), with the reformulation machinery server-side:
//
//	GET  /               endpoint summary (triples, schema, strategies)
//	GET  /v1/healthz     liveness
//	GET  /v1/readyz      readiness (503 while draining or saturated)
//	GET  /v1/stats       demo step 1 statistics (JSON)
//	GET  /metrics        Prometheus text format (?format=json for the JSON snapshot)
//	POST /v1/query       answer a query (JSON body, see QueryRequest);
//	                     "explain": true returns the estimated plan,
//	                     "explain": "analyze" executes and returns the span tree;
//	                     Accept: application/sparql-results+json negotiates
//	                     the W3C SPARQL 1.1 JSON results document
//	GET  /v1/query?q=…   same, query string (strategy, limit, explain optional)
//	POST /v1/explain     reformulation sizes + GCov cover space (JSON)
//	GET  /v1/slowlog     slow-query ring buffer with request IDs + span trees
//	GET  /v1/dump        N-Triples export
//	POST /v1/update      apply updates (N-Triples bodies: schemaAdd, delete,
//	                     insert), WAL-logged before acknowledgment when
//	                     durability is enabled
//	POST /v1/admin/checkpoint
//	                     snapshot + WAL truncate on demand
//	GET  /v1/admin/shards
//	                     shard topology: count, per-shard triple/subject
//	                     counts, skew ratio (see internal/shard)
//
// The unversioned spellings (/query, /healthz, …) predate /v1: most
// still answer exactly as their /v1 route, marked with
// Deprecation/Sunset/Successor-Version headers, but /dump and /slowlog
// have completed the sunset and answer 410 Gone with a successor
// pointer. Every error uses the {"error": {"code", "message"}} envelope
// (see v1.go).
//
// With EnableAdmission, every evaluation first passes a cost-weighted
// admission gate; shed queries answer 429/503 with Retry-After instead
// of piling up (see internal/admission).
//
// Every request carries an X-Request-Id (generated when the client sends
// none) echoed on the response and attached to logs, slow-query entries
// and traces.
//
// Handlers are safe for concurrent use, and no reader waits for a writer: a
// request loads the published engine once and reads only that version (its
// dictionary, answer, dump, statistics); /v1/update publishes a new one per
// write (see update.go). Derived state is built once per version.
//
// Every evaluation runs under the request's context: a client disconnect
// or server shutdown (via http.Server.BaseContext) cancels the in-flight
// evaluation at its next operator checkpoint, and the configured Timeout
// bounds it otherwise.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/dict"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/ntriples"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Server is the HTTP endpoint over one graph.
type Server struct {
	// eng is the published engine version; a request loads it once.
	eng      atomic.Pointer[engine.Engine]
	prefixes map[string]string
	mux      *http.ServeMux
	metrics  *metrics.Registry
	slowLog  *metrics.SlowQueryLog
	// workload is the always-on in-memory rollup behind /v1/stats; slo
	// tracks per-strategy latency SLO compliance (burn rates on /metrics);
	// journal, when enabled, durably records every answered query.
	workload *journal.Aggregator
	slo      *metrics.SLOTracker
	journal  *journal.Writer
	// gate is the optional admission gate (EnableAdmission); nil admits
	// everything. draining flips once Drain/Shutdown begins and drives
	// /v1/readyz.
	gate     *admission.Gate
	draining atomic.Bool
	// writeMu serializes the writers, updates and checkpoints, so that WAL
	// order is apply order and a checkpoint's cut matches its graph.
	writeMu sync.Mutex
	// durable, when set (EnableDurability), WAL-logs every update before
	// acknowledgment and drives auto-checkpoints; checkpointWG tracks
	// in-flight auto-checkpoint goroutines for shutdown.
	durable      *durable.Manager
	checkpointWG sync.WaitGroup
	// Timeout bounds each evaluation.
	Timeout time.Duration
	// MaxAnswerRows caps the rows serialized per response (0 = 10000).
	MaxAnswerRows int
	// SlowQueryThreshold is the total request duration above which /query
	// requests land in the slow-query log (0 = 500ms, negative =
	// disabled). Set before serving.
	SlowQueryThreshold time.Duration
	// Logger, when non-nil, receives one structured line per answered
	// query (request ID included) plus engine warnings such as cost
	// misestimates. Set before serving.
	Logger *slog.Logger
	// TraceMaxSpans bounds the per-request span tree (0 =
	// trace.DefaultMaxSpans). Every /query request is traced so the
	// slow-query log can capture full span trees; the bound keeps a huge
	// reformulation from ballooning request memory.
	TraceMaxSpans int
}

// New builds a server over the graph; prefixes apply to rule-notation
// queries. The engine's derived state (store, statistics, saturation, …) is
// built eagerly so the first requests do not pay for it.
func New(g *graph.Graph, prefixes map[string]string) *Server {
	return NewWith(g, prefixes, metrics.NewRegistry())
}

// NewWith is New with a caller-supplied metrics registry, for embedders
// that instrument components living longer than the server — refserve
// opens its durable manager (wal.* / recovery.* instruments) before the
// graph is recovered and the server can exist.
func NewWith(g *graph.Graph, prefixes map[string]string, reg *metrics.Registry) *Server {
	return NewWithOptions(g, prefixes, reg, Options{})
}

// Options configures optional server construction behavior.
type Options struct {
	// Shards hash-partitions the explicit-data store by subject into this
	// many shards (internal/shard): the executor then evaluates a union's
	// co-partitioned members shard-locally, in parallel. Values below 2
	// serve one shard.
	Shards int
}

// NewWithOptions is NewWith with construction options.
func NewWithOptions(g *graph.Graph, prefixes map[string]string, reg *metrics.Registry, opts Options) *Server {
	s := &Server{
		prefixes: prefixes,
		mux:      http.NewServeMux(),
		metrics:  reg,
		slowLog:  metrics.NewSlowQueryLog(128),
		workload: &journal.Aggregator{},
		Timeout:  30 * time.Second,
	}
	s.slo = metrics.NewSLOTracker(metrics.DefaultSLO, s.metrics)
	eng := engine.New(g)
	eng.Metrics = s.metrics
	// The workload aggregator (and the journal, when enabled) correlates
	// fragment frequency with cache behavior via fragment signatures.
	eng.CaptureFragmentSigs = true
	eng.EnableSharding(opts.Shards)
	eng.Warm()
	s.eng.Store(eng)

	s.mux.HandleFunc("/", s.handleRoot)
	// The /v1 surface.
	s.mux.HandleFunc("/v1/query", s.serveQuery)
	s.mux.HandleFunc("/v1/explain", s.serveExplain)
	s.mux.HandleFunc("/v1/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/readyz", s.handleReady)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/slowlog", s.handleSlowlog)
	s.mux.HandleFunc("/v1/debug/costmodel", s.handleCostModel)
	s.mux.HandleFunc("/v1/dump", s.handleDump)
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("/v1/admin/shards", s.handleShards)
	// Legacy unversioned spellings, until their Sunset date: each serves
	// its /v1 handler, marked deprecated. Prometheus scrapers
	// conventionally expect /metrics at the root, so that spelling may
	// outlive the others. /slowlog and /dump completed the cycle and
	// answer 410 Gone with a successor pointer.
	for path, h := range map[string]http.HandlerFunc{
		"/query":   s.serveQuery,
		"/explain": s.serveExplain,
		"/metrics": s.handleMetrics,
		"/healthz": s.handleHealth,
		"/stats":   s.handleStats,
	} {
		s.mux.HandleFunc(path, s.legacy(path, h))
	}
	for _, path := range []string{"/slowlog", "/dump"} {
		s.mux.HandleFunc(path, s.gone(path))
	}
	return s
}

// handleShards serves GET /v1/admin/shards: the partition topology —
// shard count, per-shard triple and distinct-subject counts, and the
// skew ratio (max/mean of per-shard triple counts). An unsharded server
// reports its one shard.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("http.requests." + r.URL.Path).Inc()
	sh := s.eng.Load().Store()
	s.writeOK(w, map[string]any{
		"shards":   sh.NumShards(),
		"skew":     sh.Skew(),
		"topology": sh.Topology(),
	})
}

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
// Profiling exposes stacks and timings, so refserve gates it behind an
// explicit flag rather than serving it by default.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Metrics returns the server's registry (shared with the engine and
// executor), for embedding callers that want their own exposition.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Engine returns the server's published engine, for configuration —
// enabling the view cache, resizing the plan cache — before the server
// handles requests, or not at all. Each request reads the version
// published when it starts; /v1/update publishes a new one per write, a
// copy of this engine carrying the same configuration (see update.go).
func (s *Server) Engine() *engine.Engine { return s.eng.Load() }

func (s *Server) slowThreshold() time.Duration {
	switch {
	case s.SlowQueryThreshold < 0:
		return 0 // disabled
	case s.SlowQueryThreshold == 0:
		return 500 * time.Millisecond
	default:
		return s.SlowQueryThreshold
	}
}

// handleDump streams the endpoint's triples (data plus direct constraint
// triples) as N-Triples — the export a federation mediator ingests. Like
// real endpoints, the dump is *not* saturated: entailed triples are the
// consumer's problem (§1). Triples are decoded and written one at a time
// (a large graph is never copied into a []rdf.Triple), and the first write
// error — the consumer hung up — aborts the dump instead of silently
// producing a truncated file.
func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("http.requests." + r.URL.Path).Inc()
	w.Header().Set("Content-Type", "application/n-triples")
	g := s.eng.Load().Graph()
	d := g.Dict()
	ctx := r.Context()
	sw := ntriples.NewWriter(w)
	for i, t := range g.AllTriples() {
		if i&1023 == 0 && ctx.Err() != nil {
			s.metrics.Counter("http.dump_aborted").Inc()
			return
		}
		if err := sw.WriteTriple(d.DecodeTriple(t)); err != nil {
			s.metrics.Counter("http.dump_aborted").Inc()
			return
		}
	}
	if err := sw.Flush(); err != nil {
		s.metrics.Counter("http.dump_aborted").Inc()
	}
}

// ServeHTTP implements http.Handler. Every request carries an
// X-Request-Id: the client's if it sent one, a fresh random one
// otherwise. The ID is echoed on the response and threaded through logs,
// slow-query entries and trace output.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = newRequestID()
		r.Header.Set("X-Request-Id", id)
	}
	w.Header().Set("X-Request-Id", id)
	s.mux.ServeHTTP(w, r)
}

// newRequestID returns a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// constant rather than take the endpoint down.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// requestID returns the request's (possibly generated) ID; ServeHTTP has
// always set it by the time a handler runs.
func requestID(r *http.Request) string { return r.Header.Get("X-Request-Id") }

// --- payloads ----------------------------------------------------------------

// ExplainMode selects the /query explain behavior: ExplainOff answers
// normally, ExplainPlan returns the estimated plan without executing
// (EXPLAIN), ExplainAnalyze executes and returns the recorded span tree
// with estimated-vs-actual cardinalities and timings (EXPLAIN ANALYZE).
type ExplainMode string

// The explain modes.
const (
	ExplainOff     ExplainMode = ""
	ExplainPlan    ExplainMode = "plan"
	ExplainAnalyze ExplainMode = "analyze"
)

// UnmarshalJSON accepts the documented spellings: true / "plan" for
// EXPLAIN, "analyze" for EXPLAIN ANALYZE, false / "" for off.
func (m *ExplainMode) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case bool:
		*m = ExplainOff
		if v {
			*m = ExplainPlan
		}
		return nil
	case string:
		mode, err := parseExplainMode(v)
		if err != nil {
			return err
		}
		*m = mode
		return nil
	default:
		return fmt.Errorf("explain must be true, false, %q or %q", ExplainPlan, ExplainAnalyze)
	}
}

func parseExplainMode(v string) (ExplainMode, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "false", "0", "off":
		return ExplainOff, nil
	case "true", "1", "plan":
		return ExplainPlan, nil
	case "analyze", "analyse":
		return ExplainAnalyze, nil
	default:
		return ExplainOff, fmt.Errorf("bad explain mode %q (want true, %q or %q)", v, ExplainPlan, ExplainAnalyze)
	}
}

// QueryRequest is the /query input.
type QueryRequest struct {
	// Query in rule or SPARQL notation.
	Query string `json:"query"`
	// Strategy (default ref-gcov).
	Strategy string `json:"strategy,omitempty"`
	// Cover for strategy ref-jucq: fragments of 0-based atom indexes.
	Cover [][]int `json:"cover,omitempty"`
	// Limit caps returned rows (0 = server default).
	Limit int `json:"limit,omitempty"`
	// Explain: true (or "plan") returns the estimated plan without
	// executing; "analyze" executes and returns the span tree with
	// est-vs-actual cardinalities.
	Explain ExplainMode `json:"explain,omitempty"`
}

// ExplainJSON is the explain payload attached to a /query response.
type ExplainJSON struct {
	Mode ExplainMode `json:"mode"`
	// Text is the human-readable operator tree.
	Text string `json:"text"`
	// Tree is the same plan/trace as a JSON span tree.
	Tree *trace.SpanJSON `json:"tree"`
}

// QueryResponse is the /query output, as clients decode it; the server
// writes it in one pass (writeQueryResponse), rows streamed from the answer.
type QueryResponse struct {
	Columns   []string     `json:"columns"`
	Rows      [][]string   `json:"rows"`
	Total     int          `json:"total"`
	Truncated bool         `json:"truncated,omitempty"`
	RequestID string       `json:"requestId,omitempty"`
	Explain   *ExplainJSON `json:"explain,omitempty"`
	Meta      MetaJSON     `json:"meta"`
}

// MetaJSON mirrors engine.Answer metadata plus the request's timing
// breakdown: parse (query text → CQ), prep (reformulation / cover
// search), eval (execution), serialize (rows sorted and written).
type MetaJSON struct {
	Strategy         string  `json:"strategy"`
	Cover            string  `json:"cover,omitempty"`
	ReformulationCQs int     `json:"reformulationCQs"`
	ParseMillis      float64 `json:"parseMillis"`
	PrepMillis       float64 `json:"prepMillis"`
	EvalMillis       float64 `json:"evalMillis"`
	SerializeMillis  float64 `json:"serializeMillis"`
	TotalMillis      float64 `json:"totalMillis"`
	CachedPlan       bool    `json:"cachedPlan,omitempty"`
	EstimatedCost    float64 `json:"estimatedCost,omitempty"`
	// CachedFragments counts JUCQ fragments served from the view cache
	// for this answer (omitted when zero or the cache is disabled).
	CachedFragments int `json:"cachedFragments,omitempty"`
	// QueueWaitMillis is the time spent queued at the admission gate
	// before evaluation (0 when admission is disabled or uncontended).
	QueueWaitMillis float64 `json:"queueWaitMillis,omitempty"`
	// AdmissionWeight is the number of gate slots the query's cost
	// estimate priced it at (omitted when admission is disabled).
	AdmissionWeight int `json:"admissionWeight,omitempty"`
}

// ExplainResponse is the /explain output.
type ExplainResponse struct {
	Query       string         `json:"query"`
	UCQSize     int            `json:"ucqSize"`
	PerAtom     []int          `json:"perAtom"`
	GCovCover   string         `json:"gcovCover"`
	GCovCost    float64        `json:"gcovCost"`
	Explored    []ExploredJSON `json:"explored"`
	AnswerCount int            `json:"answerCount"`
}

// ExploredJSON is one explored cover.
type ExploredJSON struct {
	Cover   string  `json:"cover"`
	Cost    float64 `json:"cost,omitempty"`
	Card    float64 `json:"card,omitempty"`
	Adopted bool    `json:"adopted,omitempty"`
	Pruned  bool    `json:"pruned,omitempty"`
	Reason  string  `json:"reason,omitempty"`
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	g := s.eng.Load().Graph()
	strategies := make([]string, len(engine.Strategies))
	for i, st := range engine.Strategies {
		strategies[i] = string(st)
	}
	s.writeOK(w, map[string]any{
		"service":     "repro RDF endpoint (reformulation-based query answering)",
		"dataTriples": g.DataCount(),
		"schema":      g.Schema().String(),
		"strategies":  strategies,
		"endpoints": []string{
			"/v1/healthz", "/v1/readyz", "/v1/stats", "/v1/metrics",
			"/v1/query", "/v1/explain", "/v1/slowlog",
			"/v1/debug/costmodel", "/v1/dump", "/v1/update",
			"/v1/admin/checkpoint", "/v1/admin/shards", "/metrics",
		},
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeOK(w, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	eng := s.eng.Load()
	st := eng.Stats()
	d := eng.Graph().Dict()
	sh := eng.Store()
	type valueCount struct {
		Value string `json:"value"`
		Count int    `json:"count"`
	}
	top := func(vcs []stats.ValueCount) []valueCount {
		out := make([]valueCount, len(vcs))
		for i, vc := range vcs {
			out[i] = valueCount{Value: d.Decode(vc.ID).String(), Count: vc.Count}
		}
		return out
	}
	pairs := make([]map[string]any, 0, 10)
	for _, pc := range st.TopPairsPO(10) {
		pairs = append(pairs, map[string]any{
			"property": d.Decode(pc.P).String(),
			"object":   d.Decode(pc.O).String(),
			"count":    pc.Count,
		})
	}
	s.writeOK(w, map[string]any{
		"triples":            st.N(),
		"distinctSubjects":   st.DistinctSubjects(),
		"distinctProperties": st.DistinctProperties(),
		"distinctObjects":    st.DistinctObjects(),
		"topProperties":      top(st.TopValues('p', 10)),
		"topPairs":           pairs,
		// Full topology lives on /v1/admin/shards.
		"shards":   map[string]any{"count": sh.NumShards(), "skew": sh.Skew()},
		"workload": s.workloadStats(),
	})
}

func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		if req.Query == "" {
			req.Query = r.URL.Query().Get("query")
		}
		req.Strategy = r.URL.Query().Get("strategy")
		if lim := r.URL.Query().Get("limit"); lim != "" {
			n, err := strconv.Atoi(lim)
			if err != nil {
				return req, fmt.Errorf("bad limit %q", lim)
			}
			req.Limit = n
		}
		mode, err := parseExplainMode(r.URL.Query().Get("explain"))
		if err != nil {
			return req, err
		}
		req.Explain = mode
	case http.MethodPost:
		if err := decodeJSONBody(w, r, maxQueryBody, &req); err != nil {
			return req, err
		}
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, fmt.Errorf("missing query")
	}
	return req, nil
}

// parseQuery parses a request's query text, with the dictionary of the
// version the request reads, into the union it denotes — the paper's rule
// notation, or SPARQL when the text starts with SELECT or PREFIX; a single
// BGP is a union of one. Whether a SPARQL query is a union is what its parse
// says, never what its text contains: an IRI or a literal may well spell
// UNION.
func (s *Server) parseQuery(d *dict.Dict, text string) (query.UCQ, error) {
	head := strings.TrimSpace(text)
	if len(head) >= 6 && (strings.EqualFold(head[:6], "SELECT") || strings.EqualFold(head[:6], "PREFIX")) {
		return query.ParseSPARQLUnion(d, text)
	}
	q, err := query.ParseRuleWithPrefixes(d, s.prefixes, text)
	if err != nil {
		return query.UCQ{}, err
	}
	return query.UCQ{HeadNames: query.HeadVarNames(q), CQs: []query.CQ{q}}, nil
}

// parseCQ is parseQuery for the routes that take a single BGP.
func (s *Server) parseCQ(d *dict.Dict, text string) (query.CQ, error) {
	u, err := s.parseQuery(d, text)
	if err != nil {
		return query.CQ{}, err
	}
	if len(u.CQs) != 1 {
		return query.CQ{}, fmt.Errorf("a single-BGP query is required, got a union of %d", len(u.CQs))
	}
	return u.CQs[0], nil
}

// serveQuery answers /v1/query.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := requestID(r)
	path := r.URL.Path
	s.metrics.Counter("http.requests." + path).Inc()
	req, err := s.parseRequest(w, r)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	strategy := engine.Strategy(req.Strategy)
	if req.Strategy == "" {
		strategy = engine.RefGCov
	}
	// The request parses, answers and decodes with the version published
	// now, whatever is published meanwhile; Budget, Tracer and Logger are
	// its own, so it copies the engine.
	eng := *s.eng.Load()
	d := eng.Graph().Dict()
	eng.Budget = exec.Budget{Timeout: s.Timeout}
	eng.Logger = s.Logger
	// Every request is traced (bounded) so the slow-query log can keep
	// full span trees for offending queries; EXPLAIN ANALYZE returns the
	// same tree to the client.
	tr := trace.New(s.TraceMaxSpans)
	root := tr.StartSpan("query")
	defer root.End()
	root.SetStr("requestId", id)
	eng.Tracer = tr
	// The request context carries client disconnects and — when the
	// caller wires http.Server.BaseContext — server shutdown into the
	// evaluation.
	ctx := r.Context()
	var (
		ans         *engine.Answer
		parseMillis float64
		sig         string
	)
	parseStart := time.Now()
	psp := root.Child("parse")
	defer psp.End()
	u, perr := s.parseQuery(d, req.Query)
	psp.End()
	parseMillis = millisSince(parseStart)
	if perr != nil {
		s.writeError(w, http.StatusBadRequest, CodeParseError, perr.Error())
		return
	}
	if len(u.CQs) == 1 {
		q := u.CQs[0]
		if req.Explain == ExplainPlan {
			s.serveExplainPlan(w, &eng, req, q, strategy, id, parseMillis, start)
			return
		}
		sig = journal.QuerySig(q.CanonicalKey())
		if strategy == engine.RefJUCQ {
			ans, err = eng.AnswerWithCoverContext(ctx, q, req.Cover)
		} else {
			ans, err = eng.AnswerContext(ctx, q, strategy)
		}
	} else {
		if req.Explain == ExplainPlan {
			s.writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				"explain (without analyze) supports single-BGP queries only")
			return
		}
		keys := make([]string, len(u.CQs))
		for i, cq := range u.CQs {
			keys[i] = cq.CanonicalKey()
		}
		sig = journal.QuerySig(keys...)
		ans, err = eng.AnswerUnionContext(ctx, u, strategy)
	}
	root.End()
	if err != nil {
		s.finishQuery(ctx, queryRecord{req: req, strategy: strategy, start: start,
			parseMillis: parseMillis, id: id, root: root, path: path, sig: sig, err: err})
		s.writeAnswerError(w, err)
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = s.MaxAnswerRows
		if limit <= 0 {
			limit = 10000
		}
	}
	serStart := time.Now()
	ans.Rows.SortFirst(limit)
	n := ans.Rows.Len()
	truncated := false
	if n > limit {
		n = limit
		truncated = true
	}
	if ans.AdmissionWeight > 0 {
		w.Header().Set("X-Queue-Wait",
			strconv.FormatFloat(float64(ans.QueueWait)/float64(time.Millisecond), 'f', 3, 64)+"ms")
	}
	s.finishQuery(ctx, queryRecord{req: req, strategy: strategy, start: start,
		parseMillis: parseMillis, id: id, root: root, path: path, sig: sig,
		ans: ans, rows: ans.Rows.Len()})
	if wantsSPARQLJSON(r) {
		// The W3C document has no slot for metadata; truncation moves to
		// a header so standard clients still learn about capped answers.
		if truncated {
			w.Header().Set("X-Truncated", "true")
		}
		writeSPARQLJSON(w, d, ans.Rows, n)
		return
	}
	resp := QueryResponse{
		Columns:   ans.Rows.Vars,
		Total:     ans.Rows.Len(),
		Truncated: truncated,
		RequestID: id,
		Meta: MetaJSON{
			Strategy:         string(ans.Strategy),
			Cover:            coverString(ans.Cover),
			ReformulationCQs: ans.ReformulationCQs,
			ParseMillis:      parseMillis,
			PrepMillis:       float64(ans.PrepTime) / float64(time.Millisecond),
			EvalMillis:       float64(ans.EvalTime) / float64(time.Millisecond),
			CachedPlan:       ans.CachedPlan,
			EstimatedCost:    ans.EstimatedCost,
			CachedFragments:  ans.CachedFragments,
			QueueWaitMillis:  float64(ans.QueueWait) / float64(time.Millisecond),
			AdmissionWeight:  ans.AdmissionWeight,
		},
	}
	if req.Explain == ExplainAnalyze {
		resp.Explain = &ExplainJSON{
			Mode: ExplainAnalyze,
			Text: trace.Render(root, trace.RenderOptions{Timing: true}),
			Tree: trace.ToJSON(root),
		}
	}
	s.writeQueryResponse(w, &resp, d, ans.Rows, n, start, serStart)
}

// serveExplainPlan answers an EXPLAIN (without ANALYZE) request: the
// estimated plan from the reformulator and the cost model, no execution.
func (s *Server) serveExplainPlan(w http.ResponseWriter, eng *engine.Engine, req QueryRequest,
	q query.CQ, strategy engine.Strategy, id string, parseMillis float64, start time.Time) {
	var (
		plan *engine.Plan
		err  error
	)
	if strategy == engine.RefJUCQ {
		plan, err = eng.PlanWithCover(q, req.Cover)
	} else {
		plan, err = eng.Plan(q, strategy)
	}
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, CodeQueryError, err.Error())
		return
	}
	resp := QueryResponse{
		RequestID: id,
		Explain: &ExplainJSON{
			Mode: ExplainPlan,
			Text: plan.Explain(),
			Tree: plan.Tree(),
		},
		Meta: MetaJSON{
			Strategy:         string(plan.Strategy),
			Cover:            coverString(plan.Cover),
			ReformulationCQs: plan.ReformulationCQs,
			ParseMillis:      parseMillis,
			CachedPlan:       plan.CachedPlan,
			EstimatedCost:    plan.EstimatedCost,
		},
	}
	s.writeQueryResponse(w, &resp, nil, nil, 0, start, time.Time{})
}

// logQuery emits the per-query structured log line.
func (s *Server) logQuery(ctx context.Context, id string, req QueryRequest, strategy engine.Strategy, start time.Time, rows int, err error) {
	if s.Logger == nil {
		return
	}
	q := req.Query
	if len(q) > 256 {
		q = q[:256] + "…"
	}
	attrs := [6]slog.Attr{
		slog.String("requestId", id),
		slog.String("strategy", string(strategy)),
		slog.Float64("millis", millisSince(start)),
		slog.Int("rows", rows),
		slog.String("query", q),
	}
	level, msg, n := slog.LevelInfo, "query answered", 5
	if err != nil {
		attrs[5] = slog.String("error", err.Error())
		level, msg, n = slog.LevelError, "query failed", 6
	}
	s.Logger.LogAttrs(ctx, level, msg, attrs[:n]...)
}

func millisSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// MetricsResponse is the /metrics output: the registry snapshot plus the
// slow-query ring buffer.
type MetricsResponse struct {
	metrics.Snapshot
	SlowQueryThresholdMillis float64             `json:"slowQueryThresholdMillis"`
	SlowQueriesTotal         int64               `json:"slowQueriesTotal"`
	SlowQueries              []metrics.SlowQuery `json:"slowQueries"`
}

// handleMetrics serves Prometheus text format by default and the JSON
// snapshot (including the slow-query ring) at /metrics?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Burn-rate gauges are derived from the SLO rings on demand: scrapes
	// see current windows without a background ticker.
	s.slo.Publish(time.Now())
	switch strings.ToLower(r.URL.Query().Get("format")) {
	case "", "prometheus", "text":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = metrics.WritePrometheus(w, s.metrics)
	case "json":
		resp := MetricsResponse{
			Snapshot:                 s.metrics.Snapshot(),
			SlowQueryThresholdMillis: float64(s.slowThreshold()) / float64(time.Millisecond),
			SlowQueriesTotal:         s.slowLog.Total(),
			SlowQueries:              s.slowLog.Entries(),
		}
		if resp.SlowQueries == nil {
			resp.SlowQueries = []metrics.SlowQuery{}
		}
		s.writeOK(w, resp)
	default:
		s.writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("bad format %q (want prometheus or json)", r.URL.Query().Get("format")))
	}
}

// SlowlogResponse is the /slowlog output.
type SlowlogResponse struct {
	ThresholdMillis float64             `json:"thresholdMillis"`
	Total           int64               `json:"total"`
	Entries         []metrics.SlowQuery `json:"entries"`
}

// handleSlowlog returns the retained slow-query entries, newest first,
// each with its request ID and full span tree.
func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	resp := SlowlogResponse{
		ThresholdMillis: float64(s.slowThreshold()) / float64(time.Millisecond),
		Total:           s.slowLog.Total(),
		Entries:         s.slowLog.Entries(),
	}
	if resp.Entries == nil {
		resp.Entries = []metrics.SlowQuery{}
	}
	s.writeOK(w, resp)
}

func (s *Server) serveExplain(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("http.requests." + r.URL.Path).Inc()
	req, err := s.parseRequest(w, r)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	eng := *s.eng.Load()
	d := eng.Graph().Dict()
	q, err := s.parseCQ(d, req.Query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeParseError, err.Error())
		return
	}
	// The cover search, the admission gate and the evaluation are the
	// engine's, exactly as for a ref-gcov query: same plan and view caches,
	// same metrics. Only the UCQ size is this route's own.
	eng.Budget = exec.Budget{Timeout: s.Timeout}
	total, per := eng.Reformulator().CombinationCount(q)
	ans, err := eng.AnswerContext(r.Context(), q, engine.RefGCov)
	if err != nil {
		s.writeAnswerError(w, err)
		return
	}
	resp := ExplainResponse{
		Query:       query.FormatCQ(d, q),
		UCQSize:     total,
		PerAtom:     per,
		GCovCover:   ans.Cover.String(),
		GCovCost:    ans.EstimatedCost,
		AnswerCount: ans.Rows.Len(),
	}
	for _, e := range ans.Explored {
		resp.Explored = append(resp.Explored, ExploredJSON{
			Cover: e.Cover.String(), Cost: e.Cost, Card: e.Card,
			Adopted: e.Adopted, Pruned: e.Pruned, Reason: e.Reason,
		})
	}
	s.writeOK(w, resp)
}

func coverString(c query.Cover) string {
	if c == nil {
		return ""
	}
	return c.String()
}

// writeJSON writes v, indented, with the given status. A value the encoder
// refuses (a NaN or infinite number) writes nothing and returns the
// encoder's error.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
	return nil
}

// writeOK writes v with status 200, or, when the encoder refuses it, the
// error envelope with status 500.
func (s *Server) writeOK(w http.ResponseWriter, v any) {
	if err := writeJSON(w, http.StatusOK, v); err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}
