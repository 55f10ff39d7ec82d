package sem

// This file glues the traversal engine's state notifications to the block
// cache's state-aware policy. The engine sees vertices; the cache sees device
// blocks. The graph sits between them and owns the translation: out.extent maps
// a vertex to its adjacency bytes (format-blind, v1 records or v2 compressed
// blocks), and the byte offset divided by the cache's block size names the
// block whose pending-visitor counter the settle events drive. The same
// block translation drives the prefetcher's residency accounting against the
// cache's residency bitset.

import "repro/internal/graph"

// EnableStateCache switches the graph's block cache to the state-aware
// eviction policy and wires the graph up as a graph.Settler. It reports false (and changes nothing) when the
// graph does not read through a CachedStore — a raw-device mount has no cache
// to steer. Call once, before the first traversal.
func (g *Graph[V]) EnableStateCache() bool {
	cs, ok := g.store.(*CachedStore)
	if !ok {
		return false
	}
	g.cache = cs
	g.state = cs.EnableStatePolicy()
	return true
}

// StateCache reports the graph's cached store and whether the state-aware
// policy is active on it.
func (g *Graph[V]) StateCache() (*CachedStore, bool) {
	return g.cache, g.state != nil
}

// blockOf names the device block holding the start of v's adjacency extent.
// Extents are far smaller than a block at the repository defaults (degree x
// record size vs 4 KiB), so counting only the first block keeps the hot path
// to one division without losing precision where it matters.
//
//lint:hotpath
func (g *Graph[V]) blockOf(v V) (int64, bool) {
	if g.state == nil {
		return 0, false
	}
	off, n := g.out.extent(v)
	if n == 0 {
		return 0, false
	}
	return off / g.cache.blockSize, true
}

// SettleSink implements graph.SettleProvider: the graph is its own settle
// sink once the state-aware policy is active, nil (no per-push notification
// overhead) otherwise.
func (g *Graph[V]) SettleSink() graph.Settler {
	if g.state == nil {
		return nil
	}
	return g
}

// VertexQueued implements graph.Settler: a visitor for v entered the engine,
// so v's block gained pending work.
//
//lint:hotpath
func (g *Graph[V]) VertexQueued(v uint64) {
	if b, ok := g.blockOf(V(v)); ok {
		g.state.Queued(b)
	}
}

// VertexSettled implements graph.Settler: a visitor for v was visited or
// dropped stale, releasing its claim on the block.
//
//lint:hotpath
func (g *Graph[V]) VertexSettled(v uint64) {
	if b, ok := g.blockOf(V(v)); ok {
		g.state.Settled(b)
	}
}

var (
	_ graph.Settler        = (*Graph[uint32])(nil)
	_ graph.SettleProvider = (*Graph[uint32])(nil)
)
