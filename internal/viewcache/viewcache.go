// Package viewcache materializes fragment-level query results for reuse
// across queries — the serving-stack analog of a KV cache, after Goasdoué
// et al.'s observation that reformulation-closed sub-results are the right
// unit of materialization. The reformulation strategies re-derive the same
// fragment UCQs over and over (the atomic reformulations of one triple
// pattern recur in many covers), so a serving deployment that caches
// fragment results answers repeated workloads mostly from memory.
//
// The cache is a sharded, byte-budgeted LRU keyed by the fragment's query,
// canonicalized and dictionary-encoded (Signature): two fragments whose
// queries are equal up to variable renaming and atom order share one entry,
// whichever complete reformulation filled it, and a hit is returned as a
// defensively immutable, positionally renamed view.
//
// Admission is cost-based: only fragments whose estimated evaluation cost
// clears Config.MinCost are cached (cheap fragments are faster to recompute
// than to manage), and only results within Config.MaxEntryBytes are
// admitted. Concurrent identical misses collapse into one evaluation
// (singleflight), so a cold popular fragment evaluates once under load.
//
// Updates invalidate through a generation stamp: every engine write bumps it
// and drops every entry, and each engine version reads the cache under the
// generation its write left behind (At), storing a fill only while that is
// current — a reader never sees another version's fragment (per Ahmeti et
// al., update-time invalidation is first-class, not an afterthought).
package viewcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
)

// Defaults for Config zero values.
const (
	// DefaultMaxBytes is the default total byte budget (64 MiB).
	DefaultMaxBytes = 64 << 20
	// DefaultShards is the default shard count.
	DefaultShards = 16
	// DefaultMinCost is the default admission threshold on the cost
	// model's estimated fragment evaluation cost.
	DefaultMinCost = 64.0
)

// pollInterval is how often a singleflight waiter polls its stop function
// while blocked on the leader's evaluation.
const pollInterval = 2 * time.Millisecond

// Config parameterizes a Cache. Zero values take the defaults above.
type Config struct {
	// MaxBytes is the total byte budget across all shards.
	MaxBytes int64
	// MaxEntryBytes caps one entry (default: half a shard's budget; always
	// clamped to the shard budget so a single entry cannot evict a whole
	// shard and still not fit).
	MaxEntryBytes int64
	// MinCost is the admission threshold: fragments whose estimated
	// evaluation cost is below it bypass the cache entirely (0 = default;
	// negative = admit regardless of cost).
	MinCost float64
	// Shards is the number of independently locked LRU shards.
	Shards int
	// Metrics, when non-nil, receives viewcache.hit / viewcache.miss /
	// viewcache.evict / viewcache.bypass / viewcache.reject /
	// viewcache.singleflight_shared counters and the viewcache.bytes /
	// viewcache.entries gauges.
	Metrics *metrics.Registry
}

// Cache is a sharded, byte-budgeted, generation-stamped LRU of fragment
// results. Safe for concurrent use.
type Cache struct {
	shards      []*shard
	shardBudget int64
	maxEntry    int64
	minCost     float64
	m           *metrics.Registry

	gen     atomic.Uint64
	bytes   atomic.Int64
	entries atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	bytes   int64      // resident bytes in this shard; guarded by mu
	order   *list.List // front = most recent; values are *entry
	byKey   map[string]*list.Element
	flights map[string]*flight
}

type entry struct {
	key   string
	rel   *exec.Relation // immutable snapshot (chunks copied, the last exact-capacity)
	bytes int64
	gen   uint64
}

// flight is one in-progress evaluation waiters can share. rel/err are
// written before done is closed and read only after it is closed.
type flight struct {
	done  chan struct{}
	rel   *exec.Relation
	bytes int64
	err   error
	gen   uint64
}

// New returns a cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	c := &Cache{
		shards:      make([]*shard, cfg.Shards),
		shardBudget: cfg.MaxBytes / int64(cfg.Shards),
		minCost:     cfg.MinCost,
		m:           cfg.Metrics,
	}
	if c.shardBudget < 1 {
		c.shardBudget = 1
	}
	if c.minCost == 0 {
		c.minCost = DefaultMinCost
	}
	c.maxEntry = cfg.MaxEntryBytes
	if c.maxEntry <= 0 {
		c.maxEntry = c.shardBudget / 2
	}
	if c.maxEntry > c.shardBudget {
		c.maxEntry = c.shardBudget
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			order:   list.New(),
			byKey:   map[string]*list.Element{},
			flights: map[string]*flight{},
		}
	}
	return c
}

// Signature is the cache key of a fragment query: a hash of its canonical
// key (variables renamed in first-occurrence order, head first, atoms
// reordered canonically, constants rendered as dictionary IDs). Fragments
// whose queries are equal up to variable renaming and atom order — even
// when produced by different queries, covers or reformulations — share one
// signature; the head columns correspond positionally.
func Signature(q query.CQ) string {
	sum := sha256.Sum256([]byte(q.CanonicalKey()))
	return string(sum[:])
}

// BoundSignature derives the key of a fragment given as a shape: sig is the
// Signature of the fragment query with parameters in place of instance
// constants (query.Lift; a parameter canonicalizes as the constant it is),
// and the fragment itself binds params[slot] for each of slots. The
// signature fixes the fragment up to those values and the values fix the
// rest, so hashing the two identifies the bound fragment without
// canonicalizing it again; a fragment with no slots keeps its Signature.
func BoundSignature(sig string, params []dict.ID, slots []int) string {
	if len(slots) == 0 {
		return sig
	}
	buf := make([]byte, 0, 128)
	buf = append(buf, sig...)
	for _, slot := range slots {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(params[slot]))
	}
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Bytes returns the cached result bytes currently resident.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Invalidate bumps the generation stamp, drops every entry and returns the
// new generation; the engine calls it on every write. The bump comes before
// the clearing, and a fill re-reads the generation under the shard lock, so
// no pre-update entry, resident or mid-store, is ever served under the new
// generation.
func (c *Cache) Invalidate() uint64 {
	gen := c.gen.Add(1)
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*entry)
			c.bytes.Add(-ent.bytes)
			c.entries.Add(-1)
		}
		sh.bytes = 0
		sh.order.Init()
		sh.byKey = map[string]*list.Element{}
		sh.mu.Unlock()
	}
	c.gauges()
	return gen
}

// At returns the cache as a reader of generation gen sees it: it looks up,
// joins flights and fills only under gen. The engine keeps one per version.
func (c *Cache) At(gen uint64) exec.FragmentCache { return &generation{c, gen} }

type generation struct {
	c   *Cache
	gen uint64
}

func (g *generation) GetOrEval(q query.CQ, key string, estCost func() float64, stop func() error,
	eval func() (*exec.Relation, error)) (*exec.Relation, exec.CacheOutcome, error) {
	return g.c.getOrEval(g.gen, q, key, estCost, stop, eval)
}

func (c *Cache) shard(key string) *shard {
	// The key is already a cryptographic hash; its first bytes index the
	// shard uniformly.
	n := uint32(key[0]) | uint32(key[1])<<8 | uint32(key[2])<<16 | uint32(key[3])<<24
	return c.shards[n%uint32(len(c.shards))]
}

// count increments one outcome counter.
//
//reflint:metricname forwarding helper; every caller passes a "viewcache."-prefixed literal covered by the bridge's label rule
func (c *Cache) count(name string) {
	c.m.Counter(name).Inc()
}

func (c *Cache) gauges() {
	if c.m == nil {
		return
	}
	c.m.Gauge("viewcache.bytes").Set(c.bytes.Load())
	c.m.Gauge("viewcache.entries").Set(c.entries.Load())
}

// GetOrEval implements exec.FragmentCache under the generation current at
// the call; a reader that captured its version earlier goes through At.
func (c *Cache) GetOrEval(q query.CQ, key string, estCost func() float64, stop func() error,
	eval func() (*exec.Relation, error)) (*exec.Relation, exec.CacheOutcome, error) {
	return c.getOrEval(c.gen.Load(), q, key, estCost, stop, eval)
}

// getOrEval returns q's result under generation gen: from an entry of gen,
// from an identical in-flight evaluation of gen, or by running eval and
// admitting the result (cost and size permitting, while gen is current).
// stop is polled while waiting on another flight. key, when non-empty, must be q's key derived by the caller — Signature(q),
// or BoundSignature for a q bound from a shape: plans are reused across
// executions, so a caller holding one canonicalizes each fragment once per
// plan instead of once per execution.
// estCost is consulted lazily, on the first miss only: estimating a large
// reformulation costs real time, and a hit must never pay it.
func (c *Cache) getOrEval(gen uint64, q query.CQ, key string, estCost func() float64, stop func() error,
	eval func() (*exec.Relation, error)) (*exec.Relation, exec.CacheOutcome, error) {
	if len(key) != sha256.Size {
		// Absent (or malformed) precomputed key: derive it here.
		key = Signature(q)
	}
	sh := c.shard(key)
	admissionChecked := false
	for {
		sh.mu.Lock()
		if el, ok := sh.byKey[key]; ok {
			ent := el.Value.(*entry)
			if ent.gen == gen {
				sh.order.MoveToFront(el)
				sh.mu.Unlock()
				view, err := ent.rel.RenamedView(query.HeadVarNames(q))
				if err == nil {
					c.count("viewcache.hit")
					return view, exec.CacheOutcome{Hit: true, Bytes: ent.bytes}, nil
				}
				// Arity mismatch cannot happen for equal signatures; fall
				// through to a fresh evaluation defensively.
				sh.mu.Lock()
				c.removeLocked(sh, el)
			} else if ent.gen < gen { // stale; a newer entry is not this reader's to drop
				c.removeLocked(sh, el)
			}
		}
		if f, ok := sh.flights[key]; ok && f.gen == gen {
			sh.mu.Unlock()
			if err := c.wait(f, stop); err != nil {
				return nil, exec.CacheOutcome{}, err
			}
			if f.err == nil && f.rel != nil {
				if view, err := f.rel.RenamedView(query.HeadVarNames(q)); err == nil {
					c.count("viewcache.miss")
					c.count("viewcache.singleflight_shared")
					return view, exec.CacheOutcome{Shared: true, Bytes: f.bytes}, nil
				}
			}
			// The leader failed (its budget, its cancellation — not
			// necessarily ours): evaluate independently.
			continue
		}
		if !admissionChecked {
			// First miss: decide (outside the shard lock — the estimate can
			// be expensive) whether this fragment is worth caching at all.
			sh.mu.Unlock()
			admissionChecked = true
			est := -1.0 // nil estimator = unknown cost = admit
			if estCost != nil {
				est = estCost()
			}
			if est >= 0 && c.minCost >= 0 && est < c.minCost {
				// Too cheap to be worth caching: evaluating is faster than
				// the bookkeeping, and budget is better spent on expensive
				// fragments.
				c.count("viewcache.bypass")
				rel, err := eval()
				return rel, exec.CacheOutcome{}, err
			}
			// Worth caching; re-take the lock and re-check — an entry or
			// flight may have appeared while we estimated.
			continue
		}
		f := &flight{done: make(chan struct{}), gen: gen}
		sh.flights[key] = f
		sh.mu.Unlock()
		c.count("viewcache.miss")
		return c.lead(sh, key, f, eval)
	}
}

// lead runs the evaluation as the flight leader, admits the result, and
// releases waiters.
func (c *Cache) lead(sh *shard, key string, f *flight, eval func() (*exec.Relation, error)) (*exec.Relation, exec.CacheOutcome, error) {
	rel, err := eval()
	var out exec.CacheOutcome
	if err == nil {
		snap := rel.Snapshot()
		f.rel, f.bytes = snap, snap.SizeBytes()
		out.Stored = c.store(sh, key, snap, f.bytes, f.gen)
		if out.Stored {
			out.Bytes = f.bytes
		}
	}
	f.err = err
	sh.mu.Lock()
	if sh.flights[key] == f {
		delete(sh.flights, key)
	}
	sh.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, exec.CacheOutcome{}, err
	}
	// The leader keeps the relation it evaluated; the cache holds its own
	// snapshot, so downstream mutation cannot reach the cached copy.
	return rel, out, nil
}

// store admits one snapshot, evicting least-recently-used entries to make
// room; it refuses oversized entries and anything computed under a stale
// generation. Returns whether the entry was admitted.
func (c *Cache) store(sh *shard, key string, snap *exec.Relation, bytes int64, gen uint64) bool {
	if bytes > c.maxEntry {
		c.count("viewcache.reject")
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.gen.Load() != gen {
		// An update completed while we evaluated: the result describes the
		// pre-update database and must not outlive it.
		return false
	}
	if el, ok := sh.byKey[key]; ok {
		// A concurrent leader (possible after a flight was replaced) beat
		// us to it; keep the resident entry and its LRU position.
		sh.order.MoveToFront(el)
		return false
	}
	evicted := 0
	for sh.bytes+bytes > c.shardBudget && sh.order.Len() > 0 {
		c.removeLocked(sh, sh.order.Back())
		evicted++
	}
	if evicted > 0 {
		c.m.Counter("viewcache.evict").Add(int64(evicted))
	}
	ent := &entry{key: key, rel: snap, bytes: bytes, gen: gen}
	sh.byKey[key] = sh.order.PushFront(ent)
	sh.bytes += bytes
	c.bytes.Add(bytes)
	c.entries.Add(1)
	c.gauges()
	return true
}

// removeLocked drops one entry; the shard lock must be held.
func (c *Cache) removeLocked(sh *shard, el *list.Element) {
	ent := el.Value.(*entry)
	sh.order.Remove(el)
	delete(sh.byKey, ent.key)
	sh.bytes -= ent.bytes
	c.bytes.Add(-ent.bytes)
	c.entries.Add(-1)
	c.gauges()
}

// wait blocks until the flight completes, polling stop so a canceled or
// over-budget waiter abandons the wait with the caller's own error.
func (c *Cache) wait(f *flight, stop func() error) error {
	if stop == nil {
		<-f.done
		return nil
	}
	if err := stop(); err != nil {
		return err
	}
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return nil
		case <-t.C:
			if err := stop(); err != nil {
				return err
			}
		}
	}
}
