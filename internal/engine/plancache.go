package engine

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/viewcache"
)

// planCache memoizes GCov outcomes per query text (prepared-statement
// style): the cover search costs tens of milliseconds — paid once, not per
// execution. Keys are the exact formatted query (constants included);
// renamed variants miss, which only costs a fresh search. A cache belongs
// to one version of the engine's derived state and is dropped with it:
// every data or schema change moves the statistics the cached costs were
// estimated from. It is safe for concurrent use, as the engine copies
// sharing a version share it too.
type planCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *planEntry
	byKey    map[string]*list.Element
}

type planEntry struct {
	key      string
	jucq     query.JUCQ
	cover    query.Cover
	cost     float64
	explored []core.Explored
	// fragKeys are the view-cache signatures of jucq's fragments, aligned
	// positionally. The plan — and its reformulated fragment UCQs — is
	// reused verbatim across executions, so the canonicalization behind
	// each signature (microseconds per member CQ, over hundreds of member
	// CQs) is paid once per plan instead of once per execution.
	fragKeys []string
}

// newPlanEntry builds a cache entry from a GCov outcome, precomputing the
// fragments' view-cache keys.
func newPlanEntry(key string, res *core.GCovResult) *planEntry {
	fragKeys := make([]string, len(res.JUCQ.Fragments))
	for i, f := range res.JUCQ.Fragments {
		fragKeys[i] = viewcache.Signature(f.UCQ)
	}
	return &planEntry{
		key: key, jucq: res.JUCQ, cover: res.Cover, cost: res.Cost,
		explored: res.Explored, fragKeys: fragKeys,
	}
}

// defaultPlanCacheSize bounds the number of cached covers per engine.
const defaultPlanCacheSize = 128

func newPlanCache(capacity int) *planCache {
	c := &planCache{order: list.New(), byKey: map[string]*list.Element{}}
	c.resize(capacity)
	return c
}

// resize sets the capacity (non-positive: the default) and drops every
// cached plan.
func (c *planCache) resize(capacity int) {
	if capacity <= 0 {
		capacity = defaultPlanCacheSize
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.order.Init()
	clear(c.byKey)
}

func (c *planCache) get(key string) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*planEntry), true
}

// put inserts or refreshes an entry and returns how many entries were
// evicted to make room (feeds the plan-cache eviction counter).
func (c *planCache) put(e *planEntry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return 0
	}
	c.byKey[e.key] = c.order.PushFront(e)
	evicted := 0
	for c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*planEntry).key)
		evicted++
	}
	return evicted
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
