package httpapi

import (
	"context"
	"errors"
	"net/http"
	"strings"

	"repro/internal/admission"
	"repro/internal/exec"
)

// This file holds the versioned /v1 surface: stable machine-readable
// error codes, the W3C SPARQL 1.1 JSON results serialization, the
// deprecation shim for legacy unversioned routes, and the admission /
// drain lifecycle. There is one dialect: a legacy route is its /v1
// handler plus deprecation headers.

// ErrorCode is a stable machine-readable /v1 error identifier. Codes are
// API surface: clients switch on them instead of string-matching
// err.Error(). Add new codes rather than changing existing ones.
type ErrorCode string

// The /v1 error-code registry (mirrored in README.md).
const (
	// CodeInvalidRequest: malformed request shape (bad JSON body, missing
	// query, bad limit/explain values, wrong method). HTTP 400.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeParseError: the query text did not parse. HTTP 400.
	CodeParseError ErrorCode = "parse_error"
	// CodeQueryError: the query parsed but could not be answered
	// (unknown strategy, invalid cover, reformulation failure). HTTP 422.
	CodeQueryError ErrorCode = "query_error"
	// CodeBudgetExceeded: evaluation exceeded its time/row/memory budget.
	// HTTP 422.
	CodeBudgetExceeded ErrorCode = "budget_exceeded"
	// CodeCanceled: the evaluation was canceled (client disconnect or
	// server shutdown). HTTP 503.
	CodeCanceled ErrorCode = "canceled"
	// CodeOverloaded: the admission gate shed the query (queue full,
	// queue deadline, or cost ceiling). HTTP 429 with Retry-After.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeDraining: the server is shutting down and admits nothing new.
	// HTTP 503 with Retry-After.
	CodeDraining ErrorCode = "draining"
	// CodeLoading: the server is still recovering (snapshot load + WAL
	// replay) and not yet serving its graph. HTTP 503.
	CodeLoading ErrorCode = "loading"
	// CodeUpdateError: an update batch parsed but could not be applied
	// (schema triple in a data batch, invalid constraint). HTTP 422.
	CodeUpdateError ErrorCode = "update_error"
	// CodeStorageError: the update applied in memory but could not be
	// made durable (WAL write/fsync failure) — retry idempotently. Also
	// covers failed checkpoints. HTTP 500.
	CodeStorageError ErrorCode = "storage_error"
	// CodeGone: the legacy unversioned route completed its deprecation
	// cycle; the envelope's successor field names the /v1 replacement.
	// HTTP 410.
	CodeGone ErrorCode = "gone"
	// CodeInternal: the answer could not be encoded (a NaN or infinite
	// number no JSON holds). HTTP 500.
	CodeInternal ErrorCode = "internal_error"
)

// v1Error is the /v1 error envelope: {"error": {"code": ..., "message": ...}}.
type v1Error struct {
	Error v1ErrorBody `json:"error"`
}

type v1ErrorBody struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// Successor names the /v1 route replacing a sunset legacy route
	// (CodeGone responses only).
	Successor string `json:"successor,omitempty"`
}

// retryAfterSeconds is the Retry-After hint on 429/503 shed responses.
// Queue waits are bounded by the queue timeout (default 1s), so a
// one-second backoff is the natural retry cadence.
const retryAfterSeconds = "1"

// classify maps an answering error onto (status, code).
func classify(err error) (int, ErrorCode) {
	switch {
	case errors.Is(err, admission.ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, admission.ErrRejected):
		return http.StatusTooManyRequests, CodeOverloaded
	case errors.Is(err, exec.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity, CodeBudgetExceeded
	case errors.Is(err, exec.ErrCanceled):
		return http.StatusServiceUnavailable, CodeCanceled
	default:
		return http.StatusUnprocessableEntity, CodeQueryError
	}
}

// writeError emits one error response in the /v1 envelope, counting it
// and attaching Retry-After on shed statuses so well-behaved clients
// back off instead of hammering a saturated gate.
func (s *Server) writeError(w http.ResponseWriter, status int, code ErrorCode, msg string) {
	s.metrics.Counter("http.errors").Inc()
	if status == http.StatusTooManyRequests || code == CodeDraining {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, v1Error{Error: v1ErrorBody{Code: code, Message: msg}})
}

// writeBodyError answers a request whose body could not be decoded: 413
// when it was longer than its limit (maxQueryBody, maxUpdateBody), 400
// otherwise.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, CodeInvalidRequest, err.Error())
}

// writeAnswerError classifies err and emits it.
func (s *Server) writeAnswerError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	s.writeError(w, status, code, err.Error())
}

// --- W3C SPARQL 1.1 JSON results ---------------------------------------------

// sparqlResultsMIME is the W3C media type /v1/query content-negotiates.
const sparqlResultsMIME = "application/sparql-results+json"

// SPARQLResults is the W3C SPARQL 1.1 Query Results JSON document
// (https://www.w3.org/TR/sparql11-results-json/): head.vars lists the
// projection, results.bindings holds one map per solution.
type SPARQLResults struct {
	Head    SPARQLHead   `json:"head"`
	Results SPARQLResSet `json:"results"`
}

// SPARQLHead is the head member: the projected variable names.
type SPARQLHead struct {
	Vars []string `json:"vars"`
}

// SPARQLResSet is the results member.
type SPARQLResSet struct {
	Bindings []map[string]SPARQLTerm `json:"bindings"`
}

// SPARQLTerm is one RDF term in a binding: type is "uri", "literal" or
// "bnode"; literals may carry xml:lang or datatype.
type SPARQLTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

// wantsSPARQLJSON reports whether the request negotiates the W3C results
// format. Matching is a deliberate substring check: Accept lists with
// parameters ("application/sparql-results+json;q=0.9, */*") must hit.
func wantsSPARQLJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), sparqlResultsMIME)
}

// --- legacy route deprecation ------------------------------------------------

// legacySunset is the RFC 8594 Sunset date every still-served legacy
// route advertises: the date after which the unversioned spelling may
// stop working (as /dump and /slowlog already have — see Server.gone).
const legacySunset = "Thu, 31 Dec 2026 23:59:59 GMT"

// legacy serves an unversioned spelling with its /v1 handler h, adding
// only deprecation signaling: every response advertises its /v1 successor
// (Deprecation + Sunset + Successor-Version + an RFC 8288
// successor-version link) and counts into http.legacy_requests so
// removal can be data-driven.
func (s *Server) legacy(path string, h http.HandlerFunc) http.HandlerFunc {
	successor := "/v1" + path
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Counter("http.legacy_requests." + path).Inc()
		hdr := w.Header()
		hdr.Set("Deprecation", "true")
		hdr.Set("Sunset", legacySunset)
		hdr.Set("Successor-Version", successor)
		hdr.Set("Link", "<"+successor+`>; rel="successor-version"`)
		h(w, r)
	}
}

// gone answers a fully sunset legacy route: 410 Gone in the /v1 error
// envelope with a successor pointer, so lingering clients get a
// machine-actionable migration hint instead of silently stale data.
func (s *Server) gone(path string) http.HandlerFunc {
	successor := "/v1" + path
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Counter("http.legacy_requests." + path).Inc()
		hdr := w.Header()
		hdr.Set("Sunset", legacySunset)
		hdr.Set("Link", "<"+successor+`>; rel="successor-version"`)
		s.writeGoneError(w, path, successor)
	}
}

// writeGoneError emits the 410 envelope for a sunset route. Registered
// alongside writeError in the errclass mapper list: the code is fixed
// (CodeGone), not classified from an answering error, and the successor
// field only exists on this outcome.
func (s *Server) writeGoneError(w http.ResponseWriter, path, successor string) {
	s.metrics.Counter("http.errors").Inc()
	writeJSON(w, http.StatusGone, v1Error{Error: v1ErrorBody{
		Code:      CodeGone,
		Message:   path + " has been sunset; use " + successor,
		Successor: successor,
	}})
}

// --- admission & lifecycle ---------------------------------------------------

// EnableAdmission installs a cost-aware admission gate in front of every
// evaluation (engine strategies and /explain's direct JUCQ evaluation).
// cfg.Metrics defaults to the server's registry. Call before serving.
func (s *Server) EnableAdmission(cfg admission.Config) {
	if cfg.Metrics == nil {
		cfg.Metrics = s.metrics
	}
	s.gate = admission.New(cfg)
	s.eng.Load().Admission = s.gate
}

// Gate returns the installed admission gate (nil when admission is
// disabled), for callers that report or test against gate state.
func (s *Server) Gate() *admission.Gate { return s.gate }

// Drain flips the server to draining: /v1/readyz starts failing so load
// balancers eject the replica, and the admission gate (when installed)
// rejects new and queued queries with ErrDraining while in-flight
// evaluations finish. Safe to call more than once.
func (s *Server) Drain() {
	s.draining.Store(true)
	if s.gate != nil {
		s.gate.Drain()
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server and blocks until in-flight admitted
// evaluations release their gate slots or ctx expires. The caller owns
// the http.Server: call Drain-aware Shutdown here first, then
// http.Server.Shutdown to close listeners, then cancel BaseContext to
// abort any evaluation that outlived the grace period.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	if s.gate == nil {
		return nil
	}
	return s.gate.Wait(ctx)
}

// handleReady is the /v1/readyz probe: readiness, as opposed to
// /v1/healthz liveness. It fails once the server is draining (so
// rolling restarts stop routing here before the listener closes) or the
// admission queue is saturated (new queries would be shed anyway).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.Draining():
		s.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
	case s.gate != nil && s.gate.Saturated():
		s.writeError(w, http.StatusServiceUnavailable, CodeOverloaded, "admission queue saturated")
	default:
		s.writeOK(w, map[string]string{"status": "ready"})
	}
}
