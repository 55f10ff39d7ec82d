// Package pq implements the binary min-heap underlying each worker's
// prioritized visitor queue. The heap orders items by a primary 64-bit
// priority and, when enabled, a secondary vertex-id key — the paper's
// semi-external "semi-sort" optimization that increases storage locality by
// visiting equal-priority vertices in ascending id order (§IV-C).
package pq

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
	items    []Item
	semiSort bool // break priority ties by ascending vertex id
	maxLen   int
}

// Note on cache-affine ordering: an earlier revision let semi-external mounts
// install a residency probe here as a tiebreak between the priority and the
// semi-sort key, so pop-windows would drain cache-resident work first.
// Measured on RMAT under the state-aware cache policy it raised device
// reads 30-65%: the semi-sort key exists to make each window's extents
// contiguous on storage, and any ordering layered above it fragments the
// coalesced spans the prefetcher forms. Window membership must stay purely
// priority + id ordered; cache affinity is applied on the cache side instead
// (recency promotion of queued blocks, pending-run span extension).

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

// Reset empties the heap and clears the high-water mark, keeping the backing
// array for reuse across traversals.
func (h *Heap) Reset() {
	h.items = h.items[:0]
	h.maxLen = 0
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

// Push inserts an item.
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

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
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
	h.items[0] = h.items[n-1]
	h.items = h.items[:n-1]
	h.siftDown(0)
	return it, true
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
		n := len(h.items)
		dst = append(dst, h.items[0])
		h.items[0] = h.items[n-1]
		h.items = h.items[:n-1]
		h.siftDown(0)
	}
	return dst
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(h.items[l], h.items[min]) {
			min = l
		}
		if r < n && h.less(h.items[r], h.items[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}
