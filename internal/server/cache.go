package server

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// Result cache: traversal results are deterministic functions of
// (graph, kernel, source, weights-mode) — the stores are immutable and the
// label-correcting kernels converge to unique labels regardless of
// interleaving — so a completed query's vertex-state snapshot can be served
// to every later request with the same key without touching the engine or
// the device. The cache is a mutex-guarded LRU over whole snapshots; at
// server scale the lock is uncontended next to a traversal's cost.

// cacheKey identifies a cacheable traversal result. weighted distinguishes
// the weights-mode: SSSP over a weighted store and over an unweighted one
// (all weights 1) are different results even for the same graph name
// elsewhere, and keying on it keeps the key self-describing. The BFS
// direction is not in the key: parent trees are direction-specific, but a
// graph's direction is fixed when it is added, so its name already keys it.
type cacheKey struct {
	graph    string
	kernel   string
	source   uint64
	weighted bool
}

// queryResult is the immutable vertex-state snapshot of one completed
// traversal: labels holds the per-vertex result (BFS level, SSSP distance,
// CC component id; graph.InfDist = unreached), parent the traversal tree
// (nil for CC). Snapshots are shared between the cache and in-flight
// responses and must never be mutated.
type queryResult struct {
	labels  []graph.Dist
	parent  []uint32
	stats   core.Stats
	elapsed time.Duration
}

type cacheEntry struct {
	key cacheKey
	res *queryResult
}

type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

func newResultCache(capEntries int) *resultCache {
	return &resultCache{
		cap:     capEntries,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
	}
}

// get returns the cached snapshot for k, updating recency and counters.
func (c *resultCache) get(k cacheKey) (*queryResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).res, true
}

// put inserts (or refreshes) a snapshot, evicting least-recently-used
// entries past capacity.
func (c *resultCache) put(k cacheKey, res *queryResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, res: res})
	for c.lru.Len() > c.cap {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Len reports cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Counters snapshots hit/miss/eviction counts.
func (c *resultCache) Counters() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
