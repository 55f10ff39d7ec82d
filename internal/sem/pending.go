package sem

// This file holds the block cache's view of traversal state: a per-block
// pending-visitor counter fed by the engine's settle hook
// (core.Engine.SetSettle -> Graph.VertexQueued/VertexSettled). Eviction does
// not read it — recency alone decides what leaves the cache, as in the OS page
// cache of the paper's runs — but a miss does: it widens its span through the
// run of blocks the traversal has queued work on (CachedStore.ahead). A cache
// nobody feeds has all-zero counters and reads plain readahead spans.

import "sync/atomic"

// pendingBlocks is one pending-visitor counter per device block, incremented
// when a visitor targeting the block is queued and decremented when it settles
// (visited or dropped stale). Blocks with a positive count hold work the
// traversal will read soon. All counters are atomics; queued/settled arrive
// concurrently from every engine worker while has is read by misses.
type pendingBlocks struct {
	count []atomic.Int32

	// pinned tracks how many blocks currently have pending work (the 0 <-> 1
	// transitions of the counters); pinnedHW is its high-water mark, the
	// "pinned-block high-water" observability column.
	pinned   atomic.Int64
	pinnedHW atomic.Int64
}

// has reports whether block holds queued work.
func (p *pendingBlocks) has(block int64) bool {
	return block >= 0 && block < int64(len(p.count)) && p.count[block].Load() > 0
}

// queued records one visitor queued for a vertex on the given block.
//
//lint:hotpath
func (p *pendingBlocks) queued(block int64) {
	if block < 0 || block >= int64(len(p.count)) || p.count[block].Add(1) != 1 {
		return
	}
	n := p.pinned.Add(1)
	for {
		hw := p.pinnedHW.Load()
		if n <= hw || p.pinnedHW.CompareAndSwap(hw, n) {
			return
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
