package engine

import (
	"container/list"
	"sync"
)

// planCache memoizes GCov outcomes per query text (prepared-statement
// style): the cover search costs tens of milliseconds — paid once, not per
// execution. Keys are the exact formatted query (constants included);
// renamed variants miss, which only costs a fresh search. A cached plan
// depends on the schema for its correctness and on the statistics only for
// its price, so a cache is handed from version to version across data
// changes, holding nothing of any version's data, and is left behind when
// the schema or the shard count changes or the data count has drifted
// (Engine.swap). It is safe for concurrent use, as the engine copies
// sharing a version share it too.
type planCache struct {
	dataCount int // the graph's data count when the cache was started

	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *prepared
	byKey    map[string]*list.Element
}

// defaultPlanCacheSize bounds the number of cached covers per engine.
const defaultPlanCacheSize = 128

func newPlanCache(capacity, dataCount int) *planCache {
	c := &planCache{dataCount: dataCount, order: list.New(), byKey: map[string]*list.Element{}}
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

func (c *planCache) get(key string) (*prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*prepared), true
}

// put inserts or refreshes an entry and returns how many entries were
// evicted to make room (feeds the plan-cache eviction counter).
func (c *planCache) put(e *prepared) int {
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
		delete(c.byKey, last.Value.(*prepared).key)
		evicted++
	}
	return evicted
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
