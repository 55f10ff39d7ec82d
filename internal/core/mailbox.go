package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/invariant"
	"repro/internal/pq"
)

// This file is the engine's mailbox layer: the lock-protected ownership
// queues (mailboxes), which in the relaxation kernel keep one visitor per
// vertex, merging each delivered visitor with the one queued for its
// vertex; the per-runner outboxes that batch pushes destined for other
// queues; the park/wake rule of the runners that serve the queues; and the
// visitors a device runner parked on their reads.
//
// The paper hides queue-lock contention by oversubscribing threads (512 on 16
// cores, §IV-A) so that any one queue's lock is rarely fought over. The
// mailbox layer attacks the same cost directly: a visitor's pushes are
// buffered in its runner's outbox, bucketed by destination queue, and
// delivered in batches, so the destination's lock and wake-up are amortized
// over a batch instead of paid per push. Three triggers deliver a bucket:
//
//  1. size: it holds batchSize visitors;
//  2. drain: its runner found no queue to hold and is about to park, which
//     makes starvation and outbox-induced deadlock impossible;
//  3. visit: on a device-backed traversal (Engine.DeliverEveryVisit), the
//     end of every visit — the rest of a runner's sweep, and the visitors it
//     pops next, may be parked on reads for as long as those take.
//
// The termination counter includes buffered visitors, so a traversal cannot
// end while any outbox is non-empty.

// batchSize is the size trigger: a bucket is delivered when it holds this many
// visitors. In memory buckets fill across visits; on a device the visit
// trigger empties them first, so there it only bounds a hub's fan-out inside
// one visit. 64 is from a push-throughput sweep at 1-4 workers.
const batchSize = 64

// workQueue is one ownership queue: a priority queue guarded by a mutex. Only
// the runner holding it pops; anyone delivers into it.
type workQueue struct {
	mu   sync.Mutex
	heap *pq.Heap
	// head is the best queued priority + 1 (saturating), 0 when empty:
	// published under mu at every push and pop, read by runners choosing.
	head atomic.Uint64
	// claim is the id + 1 of the runner holding the queue, 0 when none does.
	claim atomic.Int32
	// visits counts the visitors run from this queue; only its holder writes.
	visits uint64
	// term, set on a merging queue (Engine.mergeVisitors), retires the
	// visitors a merge drops; merged counts them, under mu.
	term   *Terminator
	merged uint64
	// home is the runner a delivery wakes if it is parked: runner i mod R.
	home *parker
}

// publish stores the heap's best priority in head. Must hold q.mu.
func (q *workQueue) publish() {
	var h uint64
	if it, ok := q.heap.Min(); ok {
		h = min(it.Pri, ^uint64(0)-1) + 1
	}
	q.head.Store(h)
}

// pushBatch delivers a batch of visitors under one lock acquisition and one
// wake-up.
//
//lint:hotpath
func (q *workQueue) pushBatch(its []pq.Item) {
	if len(its) == 0 {
		return
	}
	q.mu.Lock()
	if q.term != nil {
		q.merge(its)
	} else {
		q.heap.PushBatch(its)
	}
	q.publish()
	q.mu.Unlock()
	q.home.wake()
}

// merge queues its on a merging queue, keeping one visitor per vertex
// (pq.Heap.Merge), and retires each visitor a merge drops as a visit of an
// overtaken one would: finished. It retires under q.mu, where
// the visitor that stays is still queued, so the Terminator cannot reach
// zero here. Must hold q.mu.
//
//lint:hotpath
func (q *workQueue) merge(its []pq.Item) {
	for _, it := range its {
		if !q.heap.Merge(it) {
			continue
		}
		q.merged++
		if q.term.Finish() && invariant.Enabled {
			invariant.Failf("merge: the terminator reached zero at a merge, with vertex %d's visitor queued", it.V)
		}
	}
	if invariant.Enabled {
		if err := q.heap.CheckIndex(); err != nil {
			invariant.Failf("merge: a queue holds two visitors for one vertex: %v", err)
		}
	}
}

// tryPopBatch removes up to k visitors under one lock acquisition, appending
// them to dst: the runner loop's pop, k successive minima of the heap.
//
//lint:hotpath
func (q *workQueue) tryPopBatch(dst []pq.Item, k int) []pq.Item {
	q.mu.Lock()
	dst = q.heap.PopBatch(dst, k)
	q.publish()
	q.mu.Unlock()
	return dst
}

// parker is one runner's half of the park/wake rule. A runner with no queue
// to hold sets sleeping and tries once more to claim before it waits on ch; a
// delivery publishes its queue's head before it reads its home runner's
// sleeping. Both are sequentially consistent atomics, so either the delivery
// sees the runner asleep or the runner's last try sees the delivery; so for
// a landing, which Landed appends to landed under mu before it wakes.
type parker struct {
	sleeping atomic.Bool
	ch       chan struct{} // capacity 1: the one token a wake owes
	mu       sync.Mutex
	landed   []<-chan struct{} // the fetches posted, in landing order
}

// Landed implements graph.Completions for the fetches a runner parked on.
func (p *parker) Landed(wait <-chan struct{}) {
	p.mu.Lock()
	p.landed = append(p.landed, wait)
	p.mu.Unlock()
	p.wake()
}

// wake hands a sleeping runner its token; the CAS makes one waker owe it. A
// nil parker (an engine not yet started) wakes nobody.
//
//lint:hotpath
func (p *parker) wake() {
	if p != nil && p.sleeping.Load() && p.sleeping.CompareAndSwap(true, false) {
		p.ch <- struct{}{}
	}
}

// outbox buffers visitors by destination queue and flushes each bucket when
// it reaches the batch size. One outbox belongs to exactly one producer
// goroutine (a runner, or one ParallelInit goroutine) and needs no locking of
// its own.
type outbox struct {
	queues  []*workQueue
	bufs    [][]pq.Item
	touched []int32 // owners pushed to since the last flush, the only buckets it walks
	listed  []bool  // listed[owner]: owner is already in touched
}

func newOutbox(queues []*workQueue) *outbox {
	return &outbox{queues: queues, bufs: make([][]pq.Item, len(queues)), listed: make([]bool, len(queues))}
}

// add buffers a visitor for the given owner and delivers that owner's bucket
// when it reached the batch size (the size trigger). The caller must already
// have registered the visitor with the Terminator.
//
//lint:hotpath
func (o *outbox) add(owner int, it pq.Item) {
	if !o.listed[owner] {
		o.listed[owner] = true
		o.touched = append(o.touched, int32(owner))
	}
	buf := append(o.bufs[owner], it)
	if len(buf) >= batchSize {
		o.queues[owner].pushBatch(buf)
		buf = buf[:0]
	}
	o.bufs[owner] = buf
}

// flush delivers every buffered visitor (the drain and visit triggers). Must
// be called before the producer parks or exits.
//
//lint:hotpath
func (o *outbox) flush() {
	for _, owner := range o.touched {
		o.listed[owner] = false
		o.queues[owner].pushBatch(o.bufs[owner])
		o.bufs[owner] = o.bufs[owner][:0]
	}
	o.touched = o.touched[:0]
}

// reset discards buffered visitors without delivering them, keeping the
// per-owner buffers for reuse. Called between traversals on recycled
// resources: an aborted runner may have exited with undelivered visitors,
// which must not leak into the next run.
func (o *outbox) reset() {
	for owner := range o.bufs {
		o.bufs[owner], o.listed[owner] = o.bufs[owner][:0], false
	}
	o.touched = o.touched[:0]
}

// fetchGroup is the visitors one runner parked on one fetch, with the read
// each carries back to the visit.
type fetchGroup struct {
	wait  <-chan struct{}
	items []pq.Item
	reads []any
}

// parkedSet is one device runner's parked visitors, grouped by the fetch
// they wait on, and the buffers of its sweeps: sweep, reads and waits are
// Engine.runSweep's, free the reads of visitors that have run, for the back
// end to reuse. Only its runner touches it while the traversal runs. Groups
// past len keep their buffers for reuse.
type parkedSet struct {
	groups []fetchGroup
	n      int // visitors parked
	sweep  []pq.Item
	reads  []any
	waits  []<-chan struct{}
	free   []any
}

// add parks it, with its read, on wait, in the group of the visitors
// already waiting on it: most likely the newest, where a sweep's go.
//
//lint:hotpath
func (s *parkedSet) add(wait <-chan struct{}, it pq.Item, read any) {
	s.n++
	i := len(s.groups) - 1
	for i >= 0 && s.groups[i].wait != wait {
		i--
	}
	if i < 0 { // the first visitor parked on this fetch
		i = len(s.groups)
		if i == cap(s.groups) {
			s.groups = append(s.groups, fetchGroup{})
		} else {
			s.groups = s.groups[:i+1]
		}
		g := &s.groups[i]
		g.wait, g.items, g.reads = wait, g.items[:0], g.reads[:0]
	}
	g := &s.groups[i]
	g.items, g.reads = append(g.items, it), append(g.reads, read)
}

// landing returns the group of p's first posted fetch a group waits on, or
// -1, dropping the posts before it: a run group's, or a finished traversal's.
//
//lint:hotpath
func (s *parkedSet) landing(p *parker) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.landed) > 0 {
		for i := range s.groups {
			if s.groups[i].wait == p.landed[0] {
				return i
			}
		}
		p.landed = p.landed[:copy(p.landed, p.landed[1:])]
	}
	return -1
}

// remove drops group i, whose visitors have left, in favour of the last
// group (landing order decides what runs next), keeping i's buffers.
//
//lint:hotpath
func (s *parkedSet) remove(i int) {
	g := s.groups[i]
	s.n -= len(g.items)
	clear(g.reads) // the reads' bytes go with their visitors
	last := len(s.groups) - 1
	s.groups[i], s.groups[last] = s.groups[last], fetchGroup{items: g.items[:0], reads: g.reads[:0]}
	s.groups = s.groups[:last]
}

// reset drops every group without running it; the free list stays.
func (s *parkedSet) reset() {
	for len(s.groups) > 0 {
		s.remove(0)
	}
}
