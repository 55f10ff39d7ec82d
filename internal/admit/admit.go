// Package admit is the query service's admission policy as one pure state
// machine: no goroutines, channels, locks or wall clock — every entry point
// takes the current time from its caller. internal/server drives it with
// goroutines and wall time behind one mutex; internal/load's simulator drives
// the same code from an event heap in virtual time. A policy edit is one
// edit, and what the simulator measures is what serve runs.
//
// Why admission at all: the SEM device services a bounded number of
// concurrent operations (ssd.Profile.Channels) and every traversal multiplies
// into hundreds of worker goroutines, so an unbounded query intake would
// oversubscribe the device and collapse every query's latency at once. The
// core caps running traversals at Config.Slots, parks up to Config.MaxQueue
// excess requests on a wait queue, and sheds everything beyond that
// immediately — bounded concurrency, bounded queue, bounded wait.
//
// The wait queue is not FIFO by default. Under overload a FIFO queue gives
// every class the same p99, which is exactly backwards: the point of SLO
// classes is that a flood of batch traffic must not push interactive
// traffic's tail past its deadline. The queue is therefore a priority heap
// ordered by (SLO class rank, remaining deadline budget): a freed slot goes
// to the highest class first, and within a class to the request whose
// deadline expires soonest (earliest-deadline-first). A full queue does not
// blindly reject either: if the newcomer outranks the worst parked waiter,
// the worst waiter is displaced (it gets the queue-full rejection) and the
// newcomer takes its place — otherwise a batch flood that fills the queue
// first would lock interactive traffic out entirely. OrderFIFO restores
// strict arrival order (and plain reject-newest-on-full) for comparison runs.
//
// Deadline-aware shedding (ShedDeadline, the default) rejects a request at
// enqueue time when the estimated queue wait would consume its whole latency
// budget — a rejection now instead of a guaranteed one after QueueTimeout of
// dead waiting. The estimate is an EWMA of recent service times scaled by how
// many drain rounds stand ahead of the request — ahead in queue order, not
// arrival order, so under the priority policy a gold request is judged only
// against the waiters that would actually be served before it. The estimate
// is deliberately coarse (a scheduler hint, not a promise) and errs toward
// admitting: with no observations yet it never sheds. A queued request whose
// deadline expires before a slot frees is likewise shed at the deadline
// instead of waiting out the timer.
package admit

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"repro/internal/invariant"
)

// Queue orders for Config.Order.
const (
	// OrderPriority orders the wait queue by (SLO class, remaining deadline
	// budget); the default.
	OrderPriority = "priority"
	// OrderFIFO orders the wait queue by arrival, the pre-SLO behavior; kept
	// for policy comparison runs.
	OrderFIFO = "fifo"
)

// Shedding policies for Config.Shedding.
const (
	// ShedDeadline rejects requests whose latency budget cannot survive the
	// estimated queue wait, and queued requests whose deadline expires
	// before a slot frees; the default.
	ShedDeadline = "deadline"
	// ShedOff disables deadline-aware shedding: queued requests wait the
	// full QueueTimeout regardless of budget.
	ShedOff = "off"
)

// Config is the admission policy. Zero values select the documented
// defaults; Validate normalizes in place.
type Config struct {
	// Slots caps traversals running at once. Each traversal spawns a full
	// set of engine workers and, on SEM stores, competes for the device's
	// bounded channel pool. Default 4.
	Slots int
	// MaxQueue caps requests waiting for a slot; the request beyond it is
	// rejected (or displaces a worse waiter) immediately. Default 64.
	MaxQueue int
	// QueueTimeout bounds how long a request waits in the queue. Default 2s.
	QueueTimeout time.Duration
	// Order is the wait-queue order: OrderPriority (default) or OrderFIFO.
	Order string
	// Shedding is the deadline handling for queued requests: ShedDeadline
	// (default) or ShedOff.
	Shedding string
}

// Validate normalizes defaults in place and reports contradictions.
func (c *Config) Validate() error {
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.Slots < 0 {
		return fmt.Errorf("admit: Slots %d is negative", c.Slots)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("admit: MaxQueue %d is negative", c.MaxQueue)
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.QueueTimeout < 0 {
		return fmt.Errorf("admit: QueueTimeout %v is negative", c.QueueTimeout)
	}
	switch c.Order {
	case "":
		c.Order = OrderPriority
	case OrderPriority, OrderFIFO:
	default:
		return fmt.Errorf("admit: unknown Order %q (want priority or fifo)", c.Order)
	}
	switch c.Shedding {
	case "":
		c.Shedding = ShedDeadline
	case ShedDeadline, ShedOff:
	default:
		return fmt.Errorf("admit: unknown Shedding %q (want deadline or off)", c.Shedding)
	}
	return nil
}

// Decision is what the policy decided for one request. Run is the only
// admission; Queued is the only non-terminal one.
type Decision int

const (
	// Run: the request holds a slot.
	Run Decision = iota
	// Queued: the request is parked; a later Release grants it, Remove or
	// displacement rejects it.
	Queued
	// QueueFull: the queue is full of waiters at least as good (or a better
	// arrival displaced this one).
	QueueFull
	// QueueTimeout: the request waited Config.QueueTimeout without a slot.
	QueueTimeout
	// DeadlineShed: the latency budget cannot survive the queue — at enqueue
	// time by estimate, or by expiring while queued.
	DeadlineShed
	// RateLimited: the tenant's bucket rejected the request before
	// admission (see Bucket.Conform); never returned by Core.
	RateLimited

	// NumDecisions sizes per-decision counter arrays.
	NumDecisions
)

var decisionNames = [NumDecisions]string{"run", "queued", "queue-full", "queue-timeout", "deadline-shed", "rate-limit"}

// String names the decision; for rejections it is the X-Reject-Reason value.
func (d Decision) String() string { return decisionNames[d] }

// NoDeadline is the deadline of a request without one. It sorts after every
// real deadline and no wait estimate can exceed it.
const NoDeadline = time.Duration(math.MaxInt64)

// Ticket is one queued request. Times are offsets on the driver's clock.
type Ticket[T any] struct {
	// Data is the driver's per-request state (a grant channel, a schedule
	// index); the core never reads it.
	Data     T
	Class    Class
	Deadline time.Duration
	// ExpireAt is when the driver must Remove the ticket if it is still
	// queued, and Expire the rejection that removal means: DeadlineShed when
	// shedding is on and the deadline falls inside the queue timeout,
	// QueueTimeout otherwise.
	ExpireAt time.Duration
	Expire   Decision

	seq   uint64 // arrival order; FIFO key and final tiebreak
	index int    // heap position; -1 once granted, displaced or removed
}

// Core is the admission state: slots in use, the policy-ordered wait queue,
// and the service-time average behind the shed estimate. Not safe for
// concurrent use; the driver serializes calls and passes a non-decreasing
// now.
type Core[T any] struct {
	cfg     Config
	running int
	queue   waitQueue[T]
	seq     uint64
	// avgService is an EWMA (alpha 1/8) of completed service times; zero
	// until the first Release.
	avgService time.Duration
	last       time.Duration // latest now seen; checked under -tags invariants
}

// New builds a core for a validated policy.
func New[T any](cfg Config) *Core[T] {
	return &Core[T]{cfg: cfg, queue: waitQueue[T]{fifo: cfg.Order == OrderFIFO}}
}

// Arrive decides one request of the given class and absolute deadline
// (NoDeadline for none) arriving at now. Run claims a slot; Queued returns
// the request's ticket; DeadlineShed and QueueFull reject it. When a Queued
// arrival took a full queue's worst seat, displaced is the evicted ticket,
// whose request is rejected QueueFull.
func (c *Core[T]) Arrive(now time.Duration, class Class, deadline time.Duration) (d Decision, t, displaced *Ticket[T]) {
	c.check(now)
	if c.running < c.cfg.Slots {
		c.running++
		return Run, nil, nil
	}
	t = &Ticket[T]{Class: class, Deadline: deadline, seq: c.seq}
	shed := c.cfg.Shedding == ShedDeadline
	if shed && deadline != NoDeadline {
		if wait := c.estimateWait(t); wait > 0 && now+wait > deadline {
			return DeadlineShed, nil, nil
		}
	}
	if len(c.queue.ts) >= c.cfg.MaxQueue {
		// Full queue: displace the worst waiter if the newcomer outranks it
		// (never under FIFO, where before() is arrival order and the
		// newcomer always loses); otherwise reject the newcomer.
		worst := c.queue.worst()
		if !c.queue.before(t, worst) {
			return QueueFull, nil, nil
		}
		heap.Remove(&c.queue, worst.index)
		displaced = worst
	}
	c.seq++
	t.ExpireAt, t.Expire = now+c.cfg.QueueTimeout, QueueTimeout
	if shed && deadline < t.ExpireAt {
		t.ExpireAt, t.Expire = deadline, DeadlineShed
	}
	heap.Push(&c.queue, t)
	return Queued, t, displaced
}

// estimateWait guesses how long the candidate would wait: the running
// queries must drain once, then the waiters served before it drain Slots per
// round, each round costing one average service time. Zero until the first
// Release seeds the average — a cold core never sheds.
func (c *Core[T]) estimateWait(cand *Ticket[T]) time.Duration {
	rounds := c.queue.aheadOf(cand)/c.cfg.Slots + 1
	return time.Duration(rounds) * c.avgService
}

// Remove takes a still-queued ticket out of the queue — its ExpireAt passed,
// or its caller gave up — and reports whether the caller owns the outcome.
// False means a Release already granted it the slot or an arrival displaced
// it.
func (c *Core[T]) Remove(t *Ticket[T]) bool {
	if t.index < 0 {
		return false
	}
	heap.Remove(&c.queue, t.index)
	return true
}

// Release returns a slot at now after a traversal that ran for service,
// folding service into the shed estimate. The slot goes directly to the best
// queued ticket, which is returned (running stays constant across the
// hand-off); nil means the queue was empty and the slot is free.
func (c *Core[T]) Release(now, service time.Duration) *Ticket[T] {
	c.check(now)
	if c.avgService == 0 {
		c.avgService = service
	} else {
		c.avgService += (service - c.avgService) / 8
	}
	if len(c.queue.ts) > 0 {
		return heap.Pop(&c.queue).(*Ticket[T])
	}
	c.running--
	return nil
}

// Running reports slots in use; QueueLen reports parked tickets.
func (c *Core[T]) Running() int  { return c.running }
func (c *Core[T]) QueueLen() int { return len(c.queue.ts) }

// check asserts, under -tags invariants, what every driver must preserve —
// time never runs backwards — and that the previous call left the slot and
// queue bounds intact.
func (c *Core[T]) check(now time.Duration) {
	if !invariant.Enabled {
		return
	}
	if now < c.last {
		invariant.Failf("admit: time ran backwards: now %v after %v", now, c.last)
	}
	c.last = now
	if c.running < 0 || c.running > c.cfg.Slots {
		invariant.Failf("admit: %d running with %d slots", c.running, c.cfg.Slots)
	}
	if n := len(c.queue.ts); n > c.cfg.MaxQueue {
		invariant.Failf("admit: %d queued with capacity %d", n, c.cfg.MaxQueue)
	}
}

// waitQueue implements heap.Interface over tickets with the policy's
// ordering.
type waitQueue[T any] struct {
	ts   []*Ticket[T]
	fifo bool
}

// before is the admission ordering, shared by the heap, the ahead-of count,
// and worst-waiter selection: class first, then earliest deadline (NoDeadline
// sorts last), then arrival; arrival alone under FIFO.
func (q *waitQueue[T]) before(a, b *Ticket[T]) bool {
	if !q.fifo {
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
	}
	return a.seq < b.seq
}

// aheadOf counts queued tickets that would be served before t.
func (q *waitQueue[T]) aheadOf(t *Ticket[T]) int {
	n := 0
	for _, o := range q.ts {
		if q.before(o, t) {
			n++
		}
	}
	return n
}

// worst returns the queued ticket that would be served last; the queue must
// be non-empty.
func (q *waitQueue[T]) worst() *Ticket[T] {
	w := q.ts[0]
	for _, o := range q.ts[1:] {
		if q.before(w, o) {
			w = o
		}
	}
	return w
}

func (q *waitQueue[T]) Len() int           { return len(q.ts) }
func (q *waitQueue[T]) Less(i, j int) bool { return q.before(q.ts[i], q.ts[j]) }

func (q *waitQueue[T]) Swap(i, j int) {
	q.ts[i], q.ts[j] = q.ts[j], q.ts[i]
	q.ts[i].index = i
	q.ts[j].index = j
}

func (q *waitQueue[T]) Push(x any) {
	t := x.(*Ticket[T])
	t.index = len(q.ts)
	q.ts = append(q.ts, t)
}

func (q *waitQueue[T]) Pop() any {
	n := len(q.ts)
	t := q.ts[n-1]
	q.ts[n-1] = nil
	t.index = -1
	q.ts = q.ts[:n-1]
	return t
}
