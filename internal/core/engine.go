// Package core implements the paper's primary contribution: a multithreaded
// asynchronous visitor-queue engine for graph traversal (§III).
//
// The engine keeps Workers prioritized visitor queues. A visitor destined for
// vertex v is pushed to the queue selected by a hash of v, and a queue is
// popped only by the runner goroutine holding it, so a vertex is only ever
// visited by one runner at a time. That ownership discipline provides the
// paper's "exclusive access to a vertex when executing, removing the need for
// additional vertex-level locking", and a near-uniform hash spreads high-cost
// hub vertices across queues for load balance. The paper makes one thread
// both the owner of a queue and the unit of scheduling; here a fixed set of
// runners serves the queues (Engine.run): in memory at most GOMAXPROCS of
// them, each holding one queue at a time and moving to the queue with the
// best head, so §III-B's "Dijkstra within a queue" order does not depend on
// a scheduler that knows nothing of priorities. There are no barriers
// between traversal steps: runners run label-correcting visitors fully
// asynchronously and the traversal completes when every queued visitor has
// finished (termination is detected with an atomic outstanding-work
// counter).
//
// The implementation is layered into three files:
//
//   - mailbox.go — the delivery layer: lock-protected ownership queues,
//     per-runner outboxes that batch pushes per destination queue (delivered
//     when a bucket fills, its runner is about to park, or on a device a
//     visit ends), and the park/wake rule of the runners;
//   - terminate.go — the termination layer: the Terminator outstanding-work
//     counter with init token and CAS-max peak tracking;
//   - kernels.go — the algorithm layer: the single label-relaxation kernel
//     that BFS, SSSP, and CC instantiate against any graph.Adjacency
//     (in-memory CSR or semi-external store).
package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/pq"
)

// Config controls an Engine run.
type Config struct {
	// Workers is the number of ownership queues, the paper's thread count.
	// The paper oversubscribes (512 threads on 16 cores) to reduce queue
	// lock contention; values far above GOMAXPROCS are expected. It is not
	// the number of goroutines: in memory min(Workers, GOMAXPROCS) runners
	// serve the queues, each holding one at a time; on a device Workers
	// runners run, runner i holding queue i, so each queue keeps a storage
	// read in flight of its own. Defaults to 4 x GOMAXPROCS.
	Workers int
	// SemiSort enables the secondary vertex-id sort key inside each queue,
	// the paper's semi-external locality optimization (§IV-C).
	SemiSort bool
	// Prefetch is the pop-window size of the semi-external I/O pipeline: a
	// device runner pops up to Prefetch visitors from its queue in one batch
	// and announces their vertices to the storage back end (via
	// graph.BatchAdjacency) so adjacency reads are in flight before the
	// visits run. 0 and 1 pop one visitor a visit; an in-memory graph
	// ignores it (its runners pop a fixed batch). Window-order visiting is
	// safe: every relaxation is monotone, and every popped visitor belongs
	// to the queue the popping runner holds.
	Prefetch int
	// Direction selects the BFS implementation (see direction.go). The zero
	// value, DirectionAuto, lets BFS choose from the graph it is handed: the
	// level-synchronous driver that switches per phase between top-down
	// expansion and bottom-up in-edge scanning where the back end serves
	// in-edges (graph.InEdges) and is not sparse behind a cache, the
	// asynchronous kernel otherwise. DirectionTopDown forces the kernel;
	// DirectionHybrid and DirectionBottomUp force the driver and fail with
	// ErrNoInEdges without the capability. BFS only — SSSP and CC ignore it,
	// as label-correcting with weights has no bottom-up formulation here.
	Direction Direction
	// Alpha is the top-down→bottom-up switch threshold: a hybrid traversal
	// goes bottom-up when the frontier's out-edge count exceeds 1/Alpha of
	// the unexplored edges. 0 selects DefaultAlpha; mount paths derive a
	// graph-specific value via graph.DegreeStats.DirectionThresholds.
	Alpha int
	// Beta is the bottom-up→top-down switch threshold: a hybrid traversal
	// returns top-down when the frontier shrinks below NumVertices/Beta.
	// 0 selects DefaultBeta.
	Beta int
	// Context, when non-nil, cancels the traversal: the moment the context is
	// done the engine aborts with ctx.Err(), runners stop popping, parked
	// runners are woken, and Wait returns the cancellation error (a serving
	// layer's per-query deadline or client disconnect). Nil disables it.
	Context context.Context
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Prefetch < 0 {
		c.Prefetch = 0
	}
	if c.Direction < DirectionAuto || c.Direction > DirectionHybrid {
		c.Direction = DirectionAuto
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Beta <= 0 {
		c.Beta = DefaultBeta
	}
}

// Stats summarizes a completed traversal.
type Stats struct {
	Visits uint64 // visitors executed (a vertex may be visited many times)
	// Pushes counts the visitors queued from inside visitors (Ctx.Push).
	// External seeds (Engine.Push, ParallelInit) are counted by neither Pushes
	// nor Pruned.
	Pushes uint64
	// Pruned counts the proposals the relaxation kernel dropped at the sender
	// because an equal-or-better one for the same vertex was already claimed
	// (kernelState.propose); they were never queued. Pushes + Pruned is the
	// number of edges the kernel's visitors relaxed. Zero for custom visitors
	// and for the direction driver.
	Pruned   uint64
	MaxQueue int // high-water mark across all visitor queues
	Workers  int // worker count used
	// PeakOutstanding is the maximum number of simultaneously queued or
	// executing visitors: a direct measurement of the graph's available
	// path parallelism (§III-B1 — the chain of Figure 2 pins this near 1,
	// scale-free graphs push it toward the frontier size).
	PeakOutstanding int64
	// WorkerVisits is the per-queue visit count, for load-balance analysis
	// (§III-A: the near-uniform hash should spread hub vertices evenly); for
	// the direction driver, per phase worker that ran.
	WorkerVisits []uint64

	// Direction-driver counters (see direction.go); all zero for traversals
	// run by the asynchronous engine itself.
	TopDownPhases     int    // level-synchronous phases expanded top-down
	BottomUpPhases    int    // phases executed as bottom-up in-edge scans
	DirectionSwitches int    // direction changes between consecutive phases
	PeakFrontier      uint64 // largest per-phase frontier (vertices)
}

// Imbalance returns max-visits-per-worker divided by mean (1.0 = perfectly
// balanced), or 0 when no work ran.
func (s Stats) Imbalance() float64 {
	var total, max uint64
	for _, v := range s.WorkerVisits {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 || len(s.WorkerVisits) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(s.WorkerVisits))
	return float64(max) / mean
}

func (s Stats) String() string {
	return fmt.Sprintf("visits=%d pushes=%d pruned=%d maxQueue=%d peak=%d workers=%d",
		s.Visits, s.Pushes, s.Pruned, s.MaxQueue, s.PeakOutstanding, s.Workers)
}

// Ctx is the per-runner context handed to every visitor invocation. It
// carries the runner's scratch buffers (for semi-external adjacency reads)
// and the push interface used to queue adjacent visitors.
type Ctx[V graph.Vertex] struct {
	engine *Engine[V]
	// Worker is the queue the runner holds while the visitor runs: the
	// owner of every vertex it visits, in [0, Config.Workers).
	Worker  int
	Scratch *graph.Scratch[V]
	out     *outbox
	// stats is this runner's padded counter cell (engineRes.stats), which
	// retire folds into the engine totals.
	stats *workerStats
}

// Push queues a visitor for vertex v with the given priority and payload.
// The visitor is buffered in the runner's outbox and delivered when the
// destination bucket reaches batchSize items, the runner finds no queue to
// hold, or — under DeliverEveryVisit — the pushing visit returns.
//
//lint:hotpath
func (c *Ctx[V]) Push(pri uint64, v V, aux uint64) {
	c.stats.pushes++
	e := c.engine
	e.term.Start()
	if e.settle != nil {
		e.settle.VertexQueued(uint64(v))
	}
	c.out.add(e.owner(uint64(v)), pq.Item{Pri: pri, V: uint64(v), Aux: aux})
}

// AssertOwned asserts the engine's owner rule — per-vertex state may only be
// written while the vertex's hash-designated queue is held — at a state-write
// site. In normal builds it compiles to nothing; under `-tags invariants` a
// violation panics with both queue ids. The traversal kernels call it before
// every label/parent write; custom visitors should do the same.
func (c *Ctx[V]) AssertOwned(v V) {
	if invariant.Enabled {
		if o := c.engine.owner(uint64(v)); o != c.Worker {
			invariant.Failf("owner rule: queue %d writing state of vertex %d owned by queue %d", c.Worker, v, o)
		}
	}
}

// VisitFunc is the vertex visitor body (the paper's Algorithm 2 / 4). It
// runs with exclusive access to per-vertex state of it.V and may push
// further visitors through ctx.
type VisitFunc[V graph.Vertex] func(ctx *Ctx[V], it pq.Item) error

// Engine is a single-traversal asynchronous visitor-queue executor. Create
// with New, call Start, push the initial visitor(s), then Wait. Engines are
// single-shot: a finished engine cannot be restarted.
type Engine[V graph.Vertex] struct {
	cfg    Config
	visit  VisitFunc[V]
	queues []*workQueue
	wg     sync.WaitGroup

	// res holds the recyclable queue and runner state; a pooled traversal's
	// caller hands it back to its EnginePool after Wait.
	res *engineRes[V]
	// stop is closed by Wait once the runners have exited; it retires the
	// Config.Context watcher goroutine so cancellation support never leaks.
	stop chan struct{}
	// watcherDone, non-nil iff Start launched a Config.Context watcher, is
	// closed when that watcher exits. Wait joins on it, so a watcher caught
	// mid-Abort cannot wake the parkers of a recycled set's next traversal.
	watcherDone chan struct{}

	// term detects termination: it counts queued-but-unfinished visitors
	// (including visitors still buffered in outboxes) plus one init token
	// held until Wait is called, so the count cannot reach zero while the
	// caller is still issuing initial pushes.
	term    *Terminator
	aborted atomic.Bool
	done    atomic.Bool
	errOnce sync.Once
	err     error

	visits atomic.Uint64
	pushes atomic.Uint64
	pruned atomic.Uint64

	// prefetch, when set (SetPrefetch), receives each runner's pop-window
	// before the window's visitors execute, so a storage back end can start
	// adjacency I/O early. Widens the runner loop's pop window to
	// cfg.Prefetch when that exceeds 1.
	prefetch func(window []pq.Item, scratch *graph.Scratch[V])

	// settle, when set (SetSettle), receives the visitor lifecycle: a
	// VertexQueued at every push site and a VertexSettled for every visitor
	// that leaves the engine — visited, dropped stale, or drained by Wait
	// after an abort — at the Terminator's Start/Finish sites, so once Wait
	// returns the two streams balance per vertex.
	settle graph.Settler
	// device: the graph lives on a storage device (DeliverEveryVisit).
	device bool
}

// popBatch is how many visitors an in-memory runner pops before it chooses
// again, the winner of a sweep (EXPERIMENTS.md "Runners"): width 1 pays a
// choice per visit, width 64 visits labels later arrivals would correct.
const popBatch = 8

// New creates an engine that will execute visit for every queued visitor.
func New[V graph.Vertex](cfg Config, visit VisitFunc[V]) *Engine[V] {
	cfg.normalize()
	return newEngine(cfg, visit, newEngineRes[V](cfg))
}

// newEngine wires an engine onto a (fresh or recycled) resource set. cfg must
// already be normalized and must match the configuration res was built with.
func newEngine[V graph.Vertex](cfg Config, visit VisitFunc[V], res *engineRes[V]) *Engine[V] {
	return &Engine[V]{
		cfg:    cfg,
		visit:  visit,
		term:   NewTerminator(),
		res:    res,
		queues: res.queues,
		stop:   make(chan struct{}),
	}
}

// SetPrefetch registers the pop-window hook: fn gets each batch of more than
// one popped visitor (all from the queue the runner holds) and the runner's
// scratch before any of it executes, when Config.Prefetch > 1. Must be called
// before Start.
func (e *Engine[V]) SetPrefetch(fn func(window []pq.Item, scratch *graph.Scratch[V])) {
	e.prefetch = fn
}

// SetSettle registers a traversal-state sink (see graph.Settler): the engine
// notifies it of every visitor queued and settled, the feed behind the SEM
// cache's pending-run spans. Must be called before Start and before any
// Push. The sink is called from every runner concurrently; it must be atomic
// and cheap.
func (e *Engine[V]) SetSettle(s graph.Settler) { e.settle = s }

// DeliverEveryVisit tells the engine its graph lives on a device: every
// runner delivers its outbox after each visit, so it never blocks in a
// storage read holding a visitor another could run, and runner i holds queue
// i throughout, so each queue keeps a read in flight. Must precede Start.
func (e *Engine[V]) DeliverEveryVisit() { e.device = true }

// Start launches the runner goroutines: one per queue on a device, otherwise
// min(Workers, GOMAXPROCS). It must be called exactly once, before Wait.
func (e *Engine[V]) Start() {
	n := len(e.queues)
	if !e.device {
		n = min(n, runtime.GOMAXPROCS(0))
	}
	e.res.grow(n)
	for i, q := range e.queues {
		q.home = e.res.parkers[i%n]
		if e.device {
			q.claim.Store(int32(i + 1))
		}
	}
	if ctx := e.cfg.Context; ctx != nil {
		// A runner with work never yields, so while runners hold every
		// processor the watcher waits for preemption: abort a dead one here.
		if err := ctx.Err(); err != nil {
			e.Abort(err)
		}
		e.watcherDone = make(chan struct{})
		go func() {
			defer close(e.watcherDone)
			select {
			case <-ctx.Done():
				e.Abort(ctx.Err())
			case <-e.stop:
			}
		}()
	}
	e.wg.Add(n)
	for i := 0; i < n; i++ {
		go e.run(i)
	}
}

// owner maps a vertex id to the index of its owning queue by Fibonacci
// multiplicative hashing, near-uniform for sequential ids: the single routing
// rule behind the engine's exclusive-ownership discipline.
func (e *Engine[V]) owner(v uint64) int {
	return int(v * 0x9E3779B97F4A7C15 % uint64(len(e.queues)))
}

// Push queues a visitor for v. Safe for concurrent use once Start has
// returned. External pushes are delivered directly (lock-per-push); pushes
// from inside visitors go through the runner's batching outbox instead (see
// Ctx.Push).
func (e *Engine[V]) Push(pri uint64, v V, aux uint64) {
	e.term.Start()
	if e.settle != nil {
		e.settle.VertexQueued(uint64(v))
	}
	e.queues[e.owner(uint64(v))].pushBatch([]pq.Item{{Pri: pri, V: uint64(v), Aux: aux}})
}

// ParallelInit pushes n initial visitors concurrently, the paper's
// "for all v in g.vertex_list() parallel do" loop (Algorithm 3). Each init
// goroutine batches its pushes through an outbox of its own. gen is invoked
// once per index i in [0, n).
func (e *Engine[V]) ParallelInit(n uint64, gen func(i uint64) (pri uint64, v V, aux uint64)) {
	par := uint64(runtime.GOMAXPROCS(0))
	if par > n {
		par = 1
	}
	var wg sync.WaitGroup
	chunk := (n + par - 1) / par
	for p := uint64(0); p < par; p++ {
		lo := p * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			out := newOutbox(e.queues)
			for i := lo; i < hi; i++ {
				pri, v, aux := gen(i)
				e.term.Start()
				if e.settle != nil {
					e.settle.VertexQueued(uint64(v))
				}
				out.add(e.owner(uint64(v)), pq.Item{Pri: pri, V: uint64(v), Aux: aux})
			}
			out.flush()
		}(lo, hi)
	}
	wg.Wait()
}

// Wait releases the init token and blocks until the traversal terminates
// (all visitor queues empty and all visitors complete — the paper's
// pri_q_visit.wait()). It returns aggregate statistics and the first visitor
// error, if any.
func (e *Engine[V]) Wait() (Stats, error) {
	if e.term.Release() {
		e.finish()
	}
	e.wg.Wait()
	e.drainAborted()
	close(e.stop)
	if e.watcherDone != nil {
		<-e.watcherDone
	}
	st := Stats{
		Visits:          e.visits.Load(),
		Pushes:          e.pushes.Load(),
		Pruned:          e.pruned.Load(),
		Workers:         len(e.queues),
		PeakOutstanding: e.term.Peak(),
		WorkerVisits:    make([]uint64, len(e.queues)),
	}
	for i, q := range e.queues {
		st.WorkerVisits[i] = q.visits
		st.MaxQueue = max(st.MaxQueue, q.heap.MaxLen())
	}
	return st, e.err
}

// finish ends the traversal: parked runners are woken to leave.
func (e *Engine[V]) finish() {
	e.done.Store(true)
	for _, p := range e.res.parkers {
		p.wake()
	}
}

// fail records the first visitor error, marks the traversal aborted so no
// further visitors execute, and wakes every parked runner so the engine
// winds down promptly even with work still queued.
func (e *Engine[V]) fail(err error) {
	e.errOnce.Do(func() { e.err = err })
	e.aborted.Store(true)
	e.finish()
}

// Abort cancels the traversal from outside a visitor: runners exit at their
// next abort check without draining remaining work, parked runners are
// woken, and Wait returns err (unless a visitor error was recorded first).
// Safe for concurrent use once Start has returned; the first cause wins.
func (e *Engine[V]) Abort(err error) {
	e.fail(err)
}

// retire folds a finished runner's counters into the engine totals and lets
// go of a device runner's queue. Deferred as a bound method, not a closure.
func (e *Engine[V]) retire(ctx *Ctx[V], id int) {
	e.visits.Add(ctx.stats.visits)
	e.pushes.Add(ctx.stats.pushes)
	e.pruned.Add(ctx.stats.pruned)
	if e.device {
		e.queues[id].claim.Store(0)
	}
	e.wg.Done()
}

// run is the engine's one loop (§III): hold a queue, pop a batch, visit,
// push to the hash-selected owners, let go and choose again. An in-memory
// runner pops popBatch visitors; a device runner pops one, or a
// Config.Prefetch-wide window it announces to the storage back end (the
// pop-window hook) before visiting. Every popped visitor came off the queue
// the runner holds, so exclusive vertex ownership holds at any width.
//
//lint:hotpath
func (e *Engine[V]) run(id int) {
	ctx := &Ctx[V]{engine: e, Worker: id, Scratch: e.res.scratch[id], out: e.res.outs[id], stats: &e.res.stats[id]}
	defer e.retire(ctx, id)
	width, window := popBatch, ctx.stats.pop[:0]
	if e.device {
		width = 1
	}
	if e.prefetch != nil && e.cfg.Prefetch > 1 {
		width = e.cfg.Prefetch
		window = make([]pq.Item, 0, width)
	}
	// The abort check at the loop top is the cancellation point: an aborted
	// runner exits without draining (Wait settles what is left).
	for !e.aborted.Load() {
		held := e.claim(id, ctx.Worker)
		if held < 0 {
			if held = e.park(id, ctx.Worker); held < 0 {
				return
			}
		}
		ctx.Worker = held
		q := e.queues[held]
		window = q.tryPopBatch(window[:0], width)
		if invariant.Enabled {
			if c := q.claim.Load(); c != int32(id+1) {
				invariant.Failf("owner rule: runner %d popped queue %d, which runner %d holds", id, held, c-1)
			}
			for _, it := range window {
				if o := e.owner(it.V); o != held {
					invariant.Failf("owner rule: visitor for vertex %d (queue %d) popped from queue %d", it.V, o, held)
				}
			}
			if e.device && held != id {
				invariant.Failf("delivery rule: runner %d held queue %d on a traversal that pins runner i to queue i", id, held)
			}
			if e.device && len(ctx.out.touched) != 0 {
				invariant.Failf("delivery rule: runner %d popped holding undelivered visitors for %d queues", id, len(ctx.out.touched))
			}
		}
		if len(window) > 1 && e.prefetch != nil && !e.aborted.Load() {
			e.prefetch(window, ctx.Scratch)
		}
		// An abort landing mid-window skips the remaining visits but still
		// settles and finishes every popped visitor: they left the queue, so
		// Wait's drain will not see them.
		for _, it := range window {
			if !e.aborted.Load() {
				ctx.stats.visits++
				q.visits++
				if err := e.visit(ctx, it); err != nil {
					e.fail(err)
				}
			}
			if e.settle != nil {
				e.settle.VertexSettled(it.V)
			}
			if e.term.Finish() {
				e.finish()
			}
			if e.device {
				ctx.out.flush()
			}
		}
		if !e.device {
			q.claim.Store(0)
		}
	}
}

// claim returns the queue runner id now holds, or -1. A device runner holds
// its own. An in-memory runner takes the best head of the queue it left and
// two random ones (MultiQueues' "two choices", Rihani, Sanders, Dementiev,
// SPAA 2015), failing those the best of every queue.
//
//lint:hotpath
func (e *Engine[V]) claim(id, last int) int {
	if e.device {
		if e.queues[id].head.Load() == 0 {
			return -1
		}
		return id
	}
	best, head := e.better(last, -1, 0)
	best, head = e.better(rand.IntN(len(e.queues)), best, head)
	if best, _ = e.better(rand.IntN(len(e.queues)), best, head); best < 0 {
		best = e.scan()
	}
	for best >= 0 {
		if e.queues[best].claim.CompareAndSwap(0, int32(id+1)) {
			return best
		}
		best = e.scan()
	}
	return -1
}

// better returns q and its head if q is free, non-empty and ahead of best.
//
//lint:hotpath
func (e *Engine[V]) better(q, best int, head uint64) (int, uint64) {
	wq := e.queues[q]
	if h := wq.head.Load(); h != 0 && (best < 0 || h < head) && wq.claim.Load() == 0 {
		return q, h
	}
	return best, head
}

// scan returns the free queue with the best head, or -1 if there is none.
//
//lint:hotpath
func (e *Engine[V]) scan() int {
	best, head := -1, uint64(0)
	for q := range e.queues {
		best, head = e.better(q, best, head)
	}
	return best
}

// park is the drain trigger and the park rule (mailbox.go): runner id, with
// no queue to hold, delivers its outbox, marks itself sleeping, tries once
// more to claim and waits for a wake-up only if that fails. It returns the
// queue it then holds, or -1 once the traversal is over.
//
//lint:hotpath
func (e *Engine[V]) park(id, last int) int {
	e.res.outs[id].flush()
	p := e.res.parkers[id]
	for {
		p.sleeping.Store(true)
		if held := e.claim(id, last); held >= 0 || e.done.Load() {
			if !p.sleeping.CompareAndSwap(true, false) {
				<-p.ch // a waker saw the runner asleep first and owes it a token
			}
			return held
		}
		<-p.ch
	}
}

// drainAborted settles every visitor an aborted traversal left queued — all
// queues, all runner outboxes — so a storage back end's settle counters
// return to where the traversal found them on a mount that outlives the
// query. Wait runs it once the runners have exited, when nothing can deliver
// into a queue any more. What is drained is what the Terminator still counts
// (a Start at every queueing site, a Finish for every popped visitor), which
// `-tags invariants` asserts — on completed traversals too, where that count
// is zero and every other build skips the walk.
func (e *Engine[V]) drainAborted() {
	if !invariant.Enabled && (e.settle == nil || !e.aborted.Load()) {
		return
	}
	var drained int64
	settle := func(it pq.Item) {
		drained++
		if e.settle != nil {
			e.settle.VertexSettled(it.V)
		}
	}
	for _, q := range e.queues {
		for it, ok := q.heap.Pop(); ok; it, ok = q.heap.Pop() {
			settle(it)
		}
	}
	for _, out := range e.res.outs {
		for owner, buf := range out.bufs {
			for _, it := range buf {
				settle(it)
			}
			out.bufs[owner] = buf[:0]
		}
	}
	if invariant.Enabled && drained != e.term.Outstanding() {
		invariant.Failf("settle feed: drained %d visitors after Wait, the terminator counts %d queued and unsettled", drained, e.term.Outstanding())
	}
}
