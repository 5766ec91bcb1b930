// Package journal is the durable workload journal: an append-only JSONL
// log of every answered query — not just the slow ones the in-memory ring
// keeps — written asynchronously so the query path never blocks on disk.
// Each entry carries the canonical query signature, the per-fragment
// signatures of the evaluated reformulation, the chosen strategy, phase
// timings, per-operator estimated-vs-actual cardinalities, cache and
// admission observables, and the final outcome. The file is the mineable
// substrate workload-driven view selection needs (ROADMAP item 4), the
// replay input for refload -replay, and the calibration record for the
// cost model's q-error telemetry.
//
// The package has three parts: Writer (async bounded-queue appender with
// size-based rotation and gzip of rotated segments), ReadFile (a reader
// that tolerates the torn final line a crash can leave), and Aggregator
// (a bounded in-memory rollup of per-signature counts and costs backing
// GET /v1/stats without re-reading the file).
package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"
)

// Outcome values for Entry.Outcome. A journal consumer can rely on this
// set being closed: every answered query lands in exactly one.
const (
	OutcomeOK       = "ok"       // answered successfully
	OutcomeError    = "error"    // query-level failure (bad strategy, reformulation error)
	OutcomeCanceled = "canceled" // client disconnect or server shutdown
	OutcomeBudget   = "budget"   // evaluation exceeded its time/row budget
	OutcomeShed     = "shed"     // admission gate rejected the query
)

// FragmentStat is one evaluated reformulation fragment: its view-cache
// signature (hex) plus the est-vs-actual cardinalities and cache outcome
// from the fragment's trace span.
type FragmentStat struct {
	// Sig is the hex-encoded canonical fragment signature — identical to
	// the view cache's key for the same fragment, so a journal miner can
	// line frequencies up against cache behavior.
	Sig string `json:"sig,omitempty"`
	// EstRows / Rows are the cost model's estimate and the actual result
	// cardinality (-1 when not recorded).
	EstRows float64 `json:"estRows"`
	Rows    int64   `json:"rows"`
	// CacheHit reports the fragment was served from the view cache.
	CacheHit bool `json:"cacheHit,omitempty"`
}

// OpStat is one traced operator with both an estimated and an actual
// cardinality — one q-error sample.
type OpStat struct {
	Op      string  `json:"op"`
	EstRows float64 `json:"estRows"`
	Rows    int64   `json:"rows"`
}

// Entry is one journaled query. Field order mirrors a query's lifecycle:
// identity, text, strategy, timings, cardinalities, caches, admission,
// outcome.
type Entry struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"requestId,omitempty"`
	// Path is the route that answered ("/v1/query" or the legacy "/query").
	Path string `json:"path,omitempty"`
	// Query is the full query text — full, not truncated, so the entry can
	// be replayed verbatim by refload -replay.
	Query string `json:"query"`
	// Sig is the canonical query signature (hex): queries equal up to
	// variable renaming and atom order share one signature.
	Sig string `json:"sig"`
	// Strategy is the strategy that answered (the requested one when the
	// query failed before an answer was produced).
	Strategy string `json:"strategy"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	Err     string `json:"error,omitempty"`
	Rows    int    `json:"rows"`
	// ReformulationCQs counts the CQs in the evaluated reformulation.
	ReformulationCQs int `json:"reformulationCQs,omitempty"`

	ParseMillis float64 `json:"parseMillis,omitempty"`
	// ReformulateMillis / PlanMillis are extracted from the query's trace
	// spans; PrepMillis is the engine's combined reformulate+plan time.
	ReformulateMillis float64 `json:"reformulateMillis,omitempty"`
	PlanMillis        float64 `json:"planMillis,omitempty"`
	PrepMillis        float64 `json:"prepMillis,omitempty"`
	EvalMillis        float64 `json:"evalMillis,omitempty"`
	TotalMillis       float64 `json:"totalMillis"`

	// EstimatedCost is the cost model's estimate; with PlanCacheHit set, the
	// one made for the constants the shape was first planned with.
	EstimatedCost float64 `json:"estimatedCost,omitempty"`
	// Shape is the plan-cache identity of the query (strategies that plan
	// through the cache): the query with every constant no reformulation
	// rule reads replaced by $1, $2, …; Classes are the selectivity classes
	// of the atoms holding one, dot-separated. Of a union, the first
	// member's.
	Shape   string `json:"shape,omitempty"`
	Classes string `json:"classes,omitempty"`
	// PlanCacheHit reports the strategy's plan came from the plan cache;
	// CachedFragments counts fragments served by the view cache.
	PlanCacheHit    bool `json:"planCacheHit,omitempty"`
	CachedFragments int  `json:"cachedFragments,omitempty"`

	QueueWaitMillis float64 `json:"queueWaitMillis,omitempty"`
	AdmissionWeight int     `json:"admissionWeight,omitempty"`

	// Fragments describes the evaluated reformulation fragments (JUCQ
	// strategies only), aligned with the plan's fragment order.
	Fragments []FragmentStat `json:"fragments,omitempty"`
	// Operators lists traced operators carrying both estimated and actual
	// cardinalities, capped at MaxOperators per entry.
	Operators []OpStat `json:"operators,omitempty"`
}

// MaxOperators bounds Entry.Operators: a 300k-CQ reformulation must not
// balloon one journal line. The cap keeps the worst entries around a few
// KB; dropped operators are simply absent (the q-error histograms see
// every operator regardless — they are fed from the trace, not the
// journal).
const MaxOperators = 64

// QuerySig derives the canonical query signature from the member CQs'
// canonical keys: keys are sorted (a union's member order is irrelevant)
// and hashed. The result is hex so entries stay greppable.
func QuerySig(canonicalKeys ...string) string {
	keys := append([]string(nil), canonicalKeys...)
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
