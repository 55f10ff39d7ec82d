package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/pq"
)

// This file is the engine's mailbox layer: the lock-protected per-worker
// visitor queues (mailboxes) and the per-worker outboxes that batch pushes
// destined for other owners.
//
// The paper hides queue-lock contention by oversubscribing threads (512 on 16
// cores, §IV-A) so that any one queue's lock is rarely fought over. The
// mailbox layer attacks the same cost directly: a visitor's pushes are
// buffered in its worker's outbox, bucketed by destination owner, and
// delivered in batches, so the destination's lock and condvar signal are
// amortized over a batch instead of paid per push. Four triggers deliver a
// bucket:
//
//  1. size: it holds batchSize visitors;
//  2. drain: its worker is about to block on its own empty mailbox, which
//     makes starvation and outbox-induced deadlock impossible;
//  3. visit: on a device-backed traversal (Engine.DeliverEveryVisit), the
//     end of every visit — a worker blocked in a storage read has a mailbox
//     that is not empty;
//  4. urgent: in memory, the visitor just added beats the priority its
//     destination's owner is visiting at (workQueue.visiting). The paper's
//     SSSP is a hybrid of Bellman-Ford and Dijkstra because each queue pops
//     its locally shortest path first (§III-B); a winning proposal held
//     back in an outbox breaks that order, and the owner meanwhile visits
//     worse labels it later corrects. The rule needs no constant: it fires
//     only where a destination is behind the visitor.
//
// Delivering better work than its own does not hand the processor over:
// Go's scheduler knows nothing of priorities, and the woken owner waits,
// runnable, until its sender blocks or is preempted. So each outbox records
// the lowest priority it delivered (size, urgent or drain trigger; buffered
// visitors do not count, nobody can run them yet), and a worker whose next
// visitor is worse than that record steps aside (runtime.Gosched, engine.go)
// before visiting. The owner it woke sits in the processor's next-run slot
// and runs at once. In memory only: on a device every visit ends in a flush
// and a storage read, which hand the processor over anyway.
//
// The termination counter includes buffered visitors, so a traversal cannot
// end while any outbox is non-empty.

// batchSize is the size trigger: a bucket is delivered when it holds this many
// visitors. In memory with few workers on a large graph buckets fill across
// visits, and what the urgent trigger leaves buffered goes out this way; with
// hundreds of workers the drain trigger empties buckets first, and on a
// device the visit trigger does, so there it only bounds a hub's fan-out
// inside one visit. 64 is from a push-throughput sweep at 1-4 workers that
// never timed a device.
const batchSize = 64

// workQueue is one worker's mailbox: a priority queue guarded by a mutex and
// condvar. Only the owning worker pops; any worker (or external caller)
// delivers into it.
type workQueue struct {
	mu   sync.Mutex
	cond sync.Cond
	heap *pq.Heap
	done bool

	// visiting is the priority the owner is visiting at, published for the
	// urgent trigger: stored by the owner after each pop, 0 just before it
	// blocks (a sleeping owner is fed by the senders' drain trigger, not
	// woken for one visitor), read by every sender on every add. It stays 0
	// on a device-backed traversal, where every visit ends in a flush. The
	// pads give it a cache line of its own: on the mutex's line each read
	// would miss whenever a sender had just locked the queue.
	_        [64]byte
	visiting atomic.Uint64
	_        [56]byte
}

// push delivers a single visitor under its own lock acquisition: the path of
// Engine.Push, whose callers are outside the engine and own no outbox.
//
//lint:hotpath
func (q *workQueue) push(it pq.Item) {
	q.mu.Lock()
	q.heap.Push(it)
	q.mu.Unlock()
	q.cond.Signal()
}

// pushBatch delivers a batch of visitors under one lock acquisition and one
// signal. Only the owning worker waits on the condvar, so Signal suffices.
//
//lint:hotpath
func (q *workQueue) pushBatch(its []pq.Item) {
	if len(its) == 0 {
		return
	}
	q.mu.Lock()
	q.heap.PushBatch(its)
	q.mu.Unlock()
	q.cond.Signal()
}

// tryPopBatch removes up to k visitors under one lock acquisition, appending
// them to dst: the worker loop's pop, k successive minima of the heap.
//
//lint:hotpath
func (q *workQueue) tryPopBatch(dst []pq.Item, k int) []pq.Item {
	q.mu.Lock()
	dst = q.heap.PopBatch(dst, k)
	q.mu.Unlock()
	return dst
}

// pop blocks until a visitor is available or the engine is done. Remaining
// queued visitors are still drained after done is set; callers decide whether
// to execute or discard them.
func (q *workQueue) pop() (pq.Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if it, ok := q.heap.Pop(); ok {
			return it, true
		}
		if q.done {
			return pq.Item{}, false
		}
		q.cond.Wait()
	}
}

func (q *workQueue) finish() {
	q.mu.Lock()
	q.done = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// outbox buffers visitors by destination owner and flushes each bucket when
// it reaches the batch size. One outbox belongs to exactly one producer
// goroutine (a worker, or one ParallelInit goroutine) and needs no locking of
// its own.
type outbox struct {
	queues  []*workQueue
	bufs    [][]pq.Item
	touched []int32 // owners pushed to since the last flush, the only buckets it walks
	listed  []bool  // listed[owner]: owner is already in touched
	// delivered is the lowest priority handed to a queue since the worker
	// last cleared it (math.MaxUint64: nothing), for the step-aside rule.
	delivered uint64
}

func newOutbox(queues []*workQueue) *outbox {
	return &outbox{queues: queues, bufs: make([][]pq.Item, len(queues)), listed: make([]bool, len(queues)), delivered: math.MaxUint64}
}

// add buffers a visitor for the given owner and delivers that owner's bucket
// when it reached the batch size or the visitor beats what the owner is
// visiting (the size and urgent triggers). The caller must already have
// registered the visitor with the Terminator.
//
//lint:hotpath
func (o *outbox) add(owner int, it pq.Item) {
	if !o.listed[owner] {
		o.listed[owner] = true
		o.touched = append(o.touched, int32(owner))
	}
	buf := append(o.bufs[owner], it)
	if len(buf) >= batchSize || it.Pri < o.queues[owner].visiting.Load() {
		o.deliver(owner, buf)
		return
	}
	o.bufs[owner] = buf
}

// deliver hands a non-empty bucket to its owner's queue and lowers the
// delivered record to the bucket's best visitor.
//
//lint:hotpath
func (o *outbox) deliver(owner int, buf []pq.Item) {
	for _, it := range buf {
		o.delivered = min(o.delivered, it.Pri)
	}
	o.queues[owner].pushBatch(buf)
	o.bufs[owner] = buf[:0]
}

// flush delivers every buffered visitor (the drain and visit triggers). Must
// be called before the producer blocks or exits.
//
//lint:hotpath
func (o *outbox) flush() {
	for _, owner := range o.touched {
		o.listed[owner] = false
		if buf := o.bufs[owner]; len(buf) > 0 {
			o.deliver(int(owner), buf)
		}
	}
	o.touched = o.touched[:0]
}

// reset discards buffered visitors without delivering them, keeping the
// per-owner buffers for reuse. Called between traversals on recycled
// resources: an aborted worker may have exited with undelivered visitors,
// which must not leak into the next run.
func (o *outbox) reset() {
	for owner := range o.bufs {
		o.bufs[owner], o.listed[owner] = o.bufs[owner][:0], false
	}
	o.touched, o.delivered = o.touched[:0], math.MaxUint64
}
