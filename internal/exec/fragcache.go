package exec

import "repro/internal/query"

// FragmentCache is the executor's hook for cross-query reuse of fragment
// results: EvalJUCQContext consults it once per fragment (of the SCQ, of a
// cover, of ref-range's one-block cover), letting a serving deployment
// answer repeated workloads without re-evaluating reformulations it has
// already computed. The implementation lives in internal/viewcache; the
// executor only depends on this interface so the dependency points outward.
//
// Contract:
//
//   - q identifies the fragment, whatever eval runs: only complete forms
//     fill a fragment, and every complete form of q computes q(G∞).
//   - The relation returned on a hit is a defensively immutable view:
//     callers may read it concurrently but must never mutate it, and
//     implementations must guarantee that appending to the returned
//     relation cannot corrupt the cached copy.
//   - eval computes the fragment result on a miss; implementations must
//     collapse concurrent identical misses so eval runs once (singleflight)
//     and must poll stop while waiting so a canceled waiter unblocks.
//   - key, when non-empty, is q's cache key as the implementation derives
//     it for this exact fragment (viewcache.Signature, or BoundSignature
//     from the signature of the fragment's shape and the constants bound
//     in it); when empty the implementation derives it. Callers holding a
//     reused plan derive keys once per plan (Evaluator.Fragments).
//   - estCost returns the cost model's estimate for evaluating the
//     fragment (negative when unknown); implementations use it for
//     cost-based admission. It is a thunk because, without the plan's
//     estimate, estimating a large reformulation is itself costly:
//     implementations must not call it on the hit path, only when deciding
//     whether a miss is worth admitting.
type FragmentCache interface {
	// GetOrEval returns the result of the fragment query q, from cache when
	// possible, running eval otherwise.
	GetOrEval(q query.CQ, key string, estCost func() float64, stop func() error, eval func() (*Relation, error)) (*Relation, CacheOutcome, error)
}

// CacheOutcome reports what the cache did for one fragment.
type CacheOutcome struct {
	// Hit reports the result came from a cached entry.
	Hit bool
	// Shared reports the result was computed by a concurrent identical
	// evaluation this call waited on (singleflight).
	Shared bool
	// Stored reports the freshly evaluated result was admitted.
	Stored bool
	// Bytes is the cached entry's size (hit or stored), 0 otherwise.
	Bytes int64
}

// CacheStats accumulates view-cache outcomes for one top-level evaluation.
// The engine attaches a fresh value per answered query and surfaces the
// hits on the Answer.
type CacheStats struct {
	// Hits counts the fragments served from the cache.
	Hits int
}
