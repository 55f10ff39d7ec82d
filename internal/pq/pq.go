// Package pq implements the binary min-heap underlying each ownership
// queue. The heap orders items by a primary 64-bit priority and, when
// enabled, a secondary vertex-id key — the paper's semi-external "semi-sort"
// optimization that increases storage locality by visiting equal-priority
// vertices in ascending id order (§IV-C).
//
// A heap given a per-vertex slot index (Index) is addressable: it holds at
// most one item per vertex, and Merge folds an item into the one already
// queued for its vertex (a decrease-key when the new one is better), so a
// label-correcting traversal keeps each vertex's best visitor instead of
// popping and dropping the ones it has overtaken.
package pq

import "fmt"

// Item is a queued visitor. Pri is the traversal priority (path length for
// SSSP/BFS, candidate component id for CC), V is the vertex to visit, and Aux
// carries algorithm payload (the proposed parent for SSSP/BFS).
type Item struct {
	Pri uint64
	V   uint64
	Aux uint64
}

// Heap is a non-concurrent binary min-heap of Items. Concurrency control
// belongs to the owning worker queue, not the heap.
type Heap struct {
	items []Item
	// slot, attached by Index, is the position index of an addressable heap:
	// slot[v] is 1 + the position of v's item, 0 while none is queued. Nil
	// on a plain heap.
	slot     []int32
	semiSort bool // break priority ties by ascending vertex id
	maxLen   int
}

// Note on cache-affine ordering: an earlier revision let semi-external mounts
// install a residency probe here as a tiebreak between the priority and the
// semi-sort key, so pop-windows would drain cache-resident work first.
// Measured on RMAT behind the block cache it raised device reads 30-65%: the
// semi-sort key exists to make each window's extents contiguous on storage,
// and any ordering layered above it fragments the coalesced spans the
// prefetcher forms. Window membership must stay purely priority + id
// ordered; cache affinity is the cache's own (its readahead span).

// New returns an empty heap. When semiSort is true, ties on Pri are broken by
// ascending V.
func New(semiSort bool) *Heap {
	return &Heap{semiSort: semiSort}
}

// Len reports the number of queued items.
func (h *Heap) Len() int { return len(h.items) }

// MaxLen reports the high-water mark of the heap size, used by the harness to
// report queue memory pressure.
func (h *Heap) MaxLen() int { return h.maxLen }

// Min returns the minimum item without removing it; ok is false when the
// heap is empty.
func (h *Heap) Min() (it Item, ok bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

// Reset empties the heap and clears the high-water mark, keeping the backing
// array for reuse across traversals. The index, if any, stays attached and
// is all zero again.
func (h *Heap) Reset() {
	if h.slot != nil {
		for _, it := range h.items {
			h.slot[it.V] = 0
		}
	}
	h.items = h.items[:0]
	h.maxLen = 0
}

// Index makes the heap addressable over slot, one word per vertex, all zero;
// nil makes it plain again. The heap must be empty. Heaps whose vertices are
// disjoint may share one slot array. Items then go in through Merge.
func (h *Heap) Index(slot []int32) { h.slot = slot }

// CheckIndex reports an addressable heap's index inconsistent with its
// items: an item whose vertex's slot does not name its position, which a
// second item for one vertex always is. It costs O(Len); tests and
// invariant checks call it.
func (h *Heap) CheckIndex() error {
	for i, it := range h.items {
		if s := h.slot[it.V]; int(s) != i+1 {
			return fmt.Errorf("pq: item %d (vertex %d) but slot[%d] = %d", i, it.V, it.V, s)
		}
	}
	return nil
}

func (h *Heap) less(a, b Item) bool {
	if a.Pri != b.Pri {
		return a.Pri < b.Pri
	}
	if h.semiSort && a.V != b.V {
		return a.V < b.V
	}
	return false
}

// Push inserts an item. An addressable heap takes items through Merge.
//
//lint:hotpath
func (h *Heap) Push(it Item) {
	h.items = append(h.items, it)
	if len(h.items) > h.maxLen {
		h.maxLen = len(h.items)
	}
	h.siftUp(len(h.items) - 1)
}

// PushBatch inserts a batch of items, growing the backing array once. The
// engine's mailbox layer delivers outbox flushes through this path so the
// queue lock is held for one amortized operation instead of len(its) calls.
// The input slice is consumed before PushBatch returns; callers may reuse it.
// An addressable heap takes items through Merge.
//
//lint:hotpath
func (h *Heap) PushBatch(its []Item) {
	h.items = append(h.items, its...)
	if len(h.items) > h.maxLen {
		h.maxLen = len(h.items)
	}
	for i := len(h.items) - len(its); i < len(h.items); i++ {
		h.siftUp(i)
	}
}

// Merge queues it on an addressable heap, keeping one item per vertex. If
// one is already queued for it.V, the one with the lower priority stays —
// it replaces the queued one (a decrease-key, Aux and all) only when it is
// strictly lower — and the other is dropped; Merge then reports true.
//
//lint:hotpath
func (h *Heap) Merge(it Item) (dropped bool) {
	s := h.slot[it.V]
	if s == 0 {
		h.Push(it)
		return false
	}
	if i := int(s - 1); it.Pri < h.items[i].Pri {
		h.items[i] = it
		h.siftUp(i)
	}
	return true
}

// place puts it at position i, keeping the index.
func (h *Heap) place(i int, it Item) {
	h.items[i] = it
	if h.slot != nil {
		h.slot[it.V] = int32(i + 1)
	}
}

// siftUp and siftDown carry the moving item in hand and write each item
// they pass once: the same comparisons, and so the same order, as swapping.
func (h *Heap) siftUp(i int) {
	it := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(it, h.items[parent]) {
			break
		}
		h.place(i, h.items[parent])
		i = parent
	}
	h.place(i, it)
}

// Pop removes and returns the minimum item. ok is false when the heap is
// empty.
//
//lint:hotpath
func (h *Heap) Pop() (it Item, ok bool) {
	n := len(h.items)
	if n == 0 {
		return Item{}, false
	}
	it = h.items[0]
	h.removeMin(n)
	return it, true
}

// removeMin removes the root of a heap of n > 0 items.
func (h *Heap) removeMin(n int) {
	if h.slot != nil {
		h.slot[h.items[0].V] = 0
	}
	last := h.items[n-1]
	h.items = h.items[:n-1]
	if n > 1 {
		h.items[0] = last
		h.siftDown(0)
	}
}

// PopBatch removes up to k minimum items, appending them to dst and returning
// the extended slice. The sequence is exactly what k successive Pop calls
// would produce, so the engine's pop-window path keeps heap order. Fewer than
// k items are returned when the heap drains first.
//
// dst is grown to its final size in one reallocation up front, and each
// extraction sifts in place; the queue lock the caller holds covers k
// root-removals and at most one allocation, never k append growth steps.
//
//lint:hotpath
func (h *Heap) PopBatch(dst []Item, k int) []Item {
	if k > len(h.items) {
		k = len(h.items)
	}
	if k <= 0 {
		return dst
	}
	if free := cap(dst) - len(dst); free < k {
		grown := make([]Item, len(dst), len(dst)+k)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < k; i++ {
		dst = append(dst, h.items[0])
		h.removeMin(len(h.items))
	}
	return dst
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	it := h.items[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.items[r], h.items[c]) {
			c = r
		}
		if !h.less(h.items[c], it) {
			break
		}
		h.place(i, h.items[c])
		i = c
	}
	h.place(i, it)
}
