package sem

// This file holds the block cache's view of traversal state. Recency alone is
// blind to the algorithm: a block whose vertices are all settled is as likely
// to be kept as a block the traversal is about to revisit. ACGraph-style async
// out-of-core engines win by scoring block residency by the state of the
// vertices on each block; CachedStore does the same with a per-block
// pending-visitor counter fed by the engine's settle hook (core.Engine.SetSettle
// -> Graph.VertexQueued/VertexSettled). A cache nobody feeds has all-zero
// counters, and zero is exactly "recency decides".

import "sync/atomic"

// pendingBlocks is one pending-visitor counter per device block, incremented
// when a visitor targeting the block is queued and decremented when it settles
// (visited or dropped stale). Blocks with a positive count hold work the
// traversal will read soon, so eviction skips them while any same-shard
// settled block exists. All counters are atomics; queued/settled arrive
// concurrently from every engine worker while score is read under cache shard
// locks.
type pendingBlocks struct {
	count []atomic.Int32

	// pinned tracks how many blocks currently have pending work (the 0 <-> 1
	// transitions of the counters); pinnedHW is its high-water mark, the
	// "pinned-block high-water" observability column.
	pinned   atomic.Int64
	pinnedHW atomic.Int64
}

// score reports block's retention priority, its pending-visitor count: 0 means
// evict freely, recency decides. Consulted under the cache's shard lock.
func (p *pendingBlocks) score(block int64) int64 {
	if block < 0 || block >= int64(len(p.count)) {
		return 0
	}
	if n := p.count[block].Load(); n > 0 {
		return int64(n)
	}
	return 0
}

// queued records one visitor queued for a vertex on the given block and
// reports whether the block just went from settled to holding queued work.
//
//lint:hotpath
func (p *pendingBlocks) queued(block int64) bool {
	if block < 0 || block >= int64(len(p.count)) || p.count[block].Add(1) != 1 {
		return false
	}
	n := p.pinned.Add(1)
	for {
		hw := p.pinnedHW.Load()
		if n <= hw || p.pinnedHW.CompareAndSwap(hw, n) {
			return true
		}
	}
}

// settled records one visitor settled (visited or dropped stale) on the given
// block. The decrement saturates at zero: a settle that arrives without its
// queue must not leave the next traversal a negative count to start from.
//
//lint:hotpath
func (p *pendingBlocks) settled(block int64) {
	if block < 0 || block >= int64(len(p.count)) {
		return
	}
	for {
		cur := p.count[block].Load()
		if cur <= 0 {
			return
		}
		if p.count[block].CompareAndSwap(cur, cur-1) {
			if cur == 1 {
				p.pinned.Add(-1)
			}
			return
		}
	}
}
