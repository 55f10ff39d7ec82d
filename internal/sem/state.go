package sem

// This file glues the traversal engine's state notifications to the block
// cache's pending-visitor counters. The engine sees vertices; the cache sees
// device blocks. The graph sits between them and owns the translation:
// out.extent maps a vertex to its adjacency bytes (format-blind, v1 records or
// v2 compressed blocks), and the byte offset divided by the cache's block size
// names the block whose counter the settle events drive.

import "repro/internal/graph"

// EnableStateCache makes the graph feed its block cache the traversal's state:
// from now on it is a graph.Settler, and a miss extends its span through the
// blocks with queued visitors. It reports false (and changes nothing)
// when the graph does not read through a CachedStore directly — a raw-device
// mount has no cache to steer. Call once, before the first traversal.
func (g *Graph[V]) EnableStateCache() bool {
	cs, ok := g.store.(*CachedStore)
	if ok {
		g.cache = cs
	}
	return ok
}

// blockOf names the device block holding the start of v's adjacency extent.
// Extents are far smaller than a block at the repository defaults (degree x
// record size vs 4 KiB), so counting only the first block keeps the hot path
// to one division without losing precision where it matters.
//
//lint:hotpath
func (g *Graph[V]) blockOf(v V) (int64, bool) {
	if g.cache == nil {
		return 0, false
	}
	off, n := g.out.extent(v)
	return off / g.cache.blockSize, n > 0
}

// SettleSink implements graph.SettleProvider: the graph is its own settle
// sink once it feeds a cache, nil (no per-push notification overhead)
// otherwise.
func (g *Graph[V]) SettleSink() graph.Settler {
	if g.cache == nil {
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
		g.cache.pending.queued(b)
	}
}

// VertexSettled implements graph.Settler: a visitor for v was visited or
// dropped stale, releasing its claim on the block.
//
//lint:hotpath
func (g *Graph[V]) VertexSettled(v uint64) {
	if b, ok := g.blockOf(V(v)); ok {
		g.cache.pending.settled(b)
	}
}

var (
	_ graph.Settler        = (*Graph[uint32])(nil)
	_ graph.SettleProvider = (*Graph[uint32])(nil)
)
