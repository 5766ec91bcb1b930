package engine

import (
	"container/list"
	"sync"
)

// planCache keeps what the JUCQ and range strategies prepare — the
// reformulation, and for GCov the cover search, tens of milliseconds on a
// large query — once per query shape (prepared-statement style) instead of
// once per execution. A key (planKey) is the strategy and the query with
// every constant no reformulation rule reads replaced by a numbered
// parameter: a constant in subject position, or in object position under a
// constant property other than rdf:type (query.Lift). The rules read the
// schema and an atom's property and class positions only, so the plan of a
// shape is, with a request's constants bound in, the plan of the request. A
// constant that selects rules — a property, the object of rdf:type, the
// object under a property variable — stays in the key, and so does one
// selectivity class per parameterized atom (classFactor): the cover was
// searched on the costs of one request's constants, and a constant that
// matches many times more or fewer triples gets a search of its own.
// Renamed variables miss, which only costs a fresh search.
//
// A cached plan depends on the schema for its correctness and on the
// statistics only for its price, so a cache is handed from version to
// version across data changes, holding nothing of any version's data, and is
// left behind when the schema or the shard count changes or the data count
// has drifted (Engine.swap). It is safe for concurrent use, as the engine
// copies sharing a version share it too; the plans in it are never written.
type planCache struct {
	dataCount int // the graph's data count when the cache was started

	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *prepared
	byKey    map[string]*list.Element
}

// defaultPlanCacheSize bounds the number of cached plans per engine.
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
