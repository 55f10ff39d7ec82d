// Package core implements the paper's primary contribution: a multithreaded
// asynchronous visitor-queue engine for graph traversal (§III).
//
// The engine runs N workers; each worker owns one prioritized visitor queue.
// A visitor destined for vertex v is pushed to the queue selected by a hash
// of v, so a vertex is only ever visited by its owning worker. That ownership
// discipline provides the paper's "exclusive access to a vertex when
// executing, removing the need for additional vertex-level locking", and a
// near-uniform hash spreads high-cost hub vertices across queues for load
// balance. There are no barriers between traversal steps: workers run
// label-correcting visitors fully asynchronously and the traversal completes
// when every queued visitor has finished (termination is detected with an
// atomic outstanding-work counter).
//
// The implementation is layered into three files:
//
//   - mailbox.go — the delivery layer: lock-protected per-worker queues and
//     per-worker outboxes that batch pushes per destination owner (delivered
//     when a bucket fills, the queue runs dry, on a device a visit ends, or in
//     memory a visitor beats what its owner is visiting);
//   - terminate.go — the termination layer: the Terminator outstanding-work
//     counter with init token and CAS-max peak tracking;
//   - kernels.go — the algorithm layer: the single label-relaxation kernel
//     that BFS, SSSP, and CC instantiate against any graph.Adjacency
//     (in-memory CSR or semi-external store).
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/pq"
)

// Config controls an Engine run.
type Config struct {
	// Workers is the number of worker goroutines, each owning one visitor
	// queue. The paper oversubscribes (512 threads on 16 cores) to reduce
	// queue lock contention; values far above GOMAXPROCS are expected. A
	// goroutine is cheap to hold but not to leave waiting: a worker handed
	// a better visitor than the running one's sits runnable until a
	// processor frees up, while the running one visits labels it later
	// corrects. In memory a worker that delivered such work yields its
	// processor (mailbox.go), which bounds that cost. Defaults to 4 x
	// GOMAXPROCS.
	Workers int
	// SemiSort enables the secondary vertex-id sort key inside each queue,
	// the paper's semi-external locality optimization (§IV-C).
	SemiSort bool
	// Prefetch is the pop-window size of the semi-external I/O pipeline: a
	// worker pops up to Prefetch visitors from its queue in one batch and
	// announces their vertices to the storage back end (via
	// graph.BatchAdjacency) so adjacency reads are in flight before the
	// visits run. 0 and 1 disable the window, preserving one-pop-per-visit
	// behavior exactly; back ends that do not implement BatchAdjacency (the
	// in-memory CSR) are unaffected at any setting. Window-order visiting is
	// safe for the label-correcting kernels because every relaxation is
	// monotone (reordering costs at most extra label corrections), and
	// exclusive vertex ownership is untouched — every popped visitor still
	// belongs to the popping worker.
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
	// done the engine aborts with ctx.Err(), workers stop popping, blocked
	// workers are woken, and Wait returns the cancellation error. A serving
	// layer uses this to enforce per-query deadlines and to stop all workers
	// promptly when a client disconnects. Nil (the default) disables
	// cancellation; batch runs behave exactly as before.
	Context context.Context
}

func (c *Config) normalize() {
	_ = c.SemiSort // free toggle: both values are valid with every other setting
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
	// WorkerVisits is the per-worker visit count, for load-balance analysis
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

// Ctx is the per-worker context handed to every visitor invocation. It
// carries the worker's scratch buffers (for semi-external adjacency reads)
// and the push interface used to queue adjacent visitors.
type Ctx[V graph.Vertex] struct {
	engine  *Engine[V]
	Worker  int
	Scratch *graph.Scratch[V]
	out     *outbox
	// stats points at this worker's padded counter cell in the resource set
	// (engineRes.stats); the cell, not the Ctx, is what retire folds into the
	// engine totals.
	stats *workerStats
}

// Push queues a visitor for vertex v with the given priority and payload.
// The visitor is buffered in the worker's outbox and delivered when the
// destination bucket reaches batchSize items, the worker runs out of local
// work, the visitor beats the priority the destination is visiting at, or —
// under DeliverEveryVisit — the pushing visit returns.
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
// written by the vertex's hash-designated owning worker — at a state-write
// site. In normal builds it compiles to nothing; under `-tags invariants` a
// violation panics with both worker ids. The traversal kernels call it before
// every label/parent write; custom visitors should do the same.
func (c *Ctx[V]) AssertOwned(v V) {
	if invariant.Enabled {
		if o := c.engine.owner(uint64(v)); o != c.Worker {
			invariant.Failf("owner rule: worker %d writing state of vertex %d owned by worker %d", c.Worker, v, o)
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

	// res holds the recyclable per-worker state (queues, outboxes, scratch);
	// a pooled traversal's caller hands it back to its EnginePool after Wait.
	res *engineRes[V]
	// stop is closed by Wait once the workers have exited; it retires the
	// Config.Context watcher goroutine so cancellation support never leaks.
	stop chan struct{}
	// watcherDone, non-nil iff Start launched a Config.Context watcher, is
	// closed when that watcher exits. Wait joins on it before returning, so a
	// pooled caller cannot release the resource set under it: a watcher caught
	// mid-Abort still holds e.queues, and recycling the queues under it would
	// let its finish() mark a *different* traversal's queues done.
	watcherDone chan struct{}

	// term detects termination: it counts queued-but-unfinished visitors
	// (including visitors still buffered in outboxes) plus one init token
	// held until Wait is called, so the count cannot reach zero while the
	// caller is still issuing initial pushes.
	term       *Terminator
	aborted    atomic.Bool
	finishOnce sync.Once
	errOnce    sync.Once
	err        error

	visits atomic.Uint64
	pushes atomic.Uint64
	pruned atomic.Uint64

	// workerVisits[i] is written only by worker i and read after wg.Wait.
	workerVisits []uint64

	// prefetch, when set (SetPrefetch), receives each worker's pop-window
	// before the window's visitors execute, so a storage back end can start
	// adjacency I/O early. Widens the worker loop's pop window to cfg.Prefetch
	// when that exceeds 1.
	prefetch func(window []pq.Item, scratch *graph.Scratch[V])

	// settle, when set (SetSettle), receives the visitor lifecycle: a
	// VertexQueued at every push site (Ctx.Push, Engine.Push, ParallelInit)
	// and a VertexSettled for every visitor that leaves the engine — visited,
	// dropped stale by the kernel, or drained by Wait after an abort. The
	// pairing rides the exact same sites as the Terminator's Start/Finish
	// accounting, so once Wait returns the two notification streams balance
	// per vertex.
	settle graph.Settler
	// everyVisit: workers flush their outbox after every visit (DeliverEveryVisit).
	everyVisit bool
}

// New creates an engine that will execute visit for every queued visitor.
func New[V graph.Vertex](cfg Config, visit VisitFunc[V]) *Engine[V] {
	cfg.normalize()
	return newEngine(cfg, visit, newEngineRes[V](cfg))
}

// newEngine wires an engine onto a (fresh or recycled) resource set. cfg must
// already be normalized and must match the configuration res was built with.
func newEngine[V graph.Vertex](cfg Config, visit VisitFunc[V], res *engineRes[V]) *Engine[V] {
	e := &Engine[V]{
		cfg:   cfg,
		visit: visit,
		term:  NewTerminator(),
		res:   res,
		stop:  make(chan struct{}),
	}
	e.workerVisits = make([]uint64, cfg.Workers)
	e.queues = res.queues
	return e
}

// SetPrefetch registers the pop-window hook: fn is called with each batch of
// popped visitors (all owned by the calling worker) and that worker's scratch
// before any of the batch executes. Must be called before Start. The hook
// only fires when Config.Prefetch > 1 and a batch holds more than one
// visitor.
func (e *Engine[V]) SetPrefetch(fn func(window []pq.Item, scratch *graph.Scratch[V])) {
	e.prefetch = fn
}

// SetSettle registers a traversal-state sink (see graph.Settler): the engine
// notifies it of every visitor queued and settled, the feed behind the SEM
// cache's pending-run spans. Must be called before Start and before any
// Push. The sink is called from every worker concurrently; it must be atomic
// and cheap.
func (e *Engine[V]) SetSettle(s graph.Settler) { e.settle = s }

// DeliverEveryVisit makes every worker deliver its outbox after each visit, so
// it never blocks in a storage read holding a visitor another worker could be
// running: there its queue is not empty and no bucket is full. The kernels set
// it when the graph lives on a device. Must be called before Start.
func (e *Engine[V]) DeliverEveryVisit() { e.everyVisit = true }

// Start launches the worker goroutines. It must be called exactly once,
// before Wait.
func (e *Engine[V]) Start() {
	if ctx := e.cfg.Context; ctx != nil {
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
	e.wg.Add(len(e.queues))
	for i := range e.queues {
		go e.worker(i)
	}
}

// owner maps a vertex id to the index of its owning worker (and queue) by
// Fibonacci multiplicative hashing, near-uniform for sequential ids: the
// single routing rule behind the engine's exclusive-ownership discipline.
func (e *Engine[V]) owner(v uint64) int {
	return int(v * 0x9E3779B97F4A7C15 % uint64(len(e.queues)))
}

// Push queues a visitor for v. Safe for concurrent use. External pushes are
// delivered directly (lock-per-push); pushes from inside visitors go through
// the worker's batching outbox instead (see Ctx.Push).
func (e *Engine[V]) Push(pri uint64, v V, aux uint64) {
	e.term.Start()
	if e.settle != nil {
		e.settle.VertexQueued(uint64(v))
	}
	e.queues[e.owner(uint64(v))].push(pq.Item{Pri: pri, V: uint64(v), Aux: aux})
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
		WorkerVisits:    e.workerVisits,
	}
	for _, q := range e.queues {
		if m := q.heap.MaxLen(); m > st.MaxQueue {
			st.MaxQueue = m
		}
	}
	return st, e.err
}

func (e *Engine[V]) finish() {
	e.finishOnce.Do(func() {
		for _, q := range e.queues {
			q.finish()
		}
	})
}

// fail records the first visitor error, marks the traversal aborted so no
// further visitors execute, and wakes every blocked worker so the engine
// winds down promptly even with work still queued.
func (e *Engine[V]) fail(err error) {
	e.errOnce.Do(func() { e.err = err })
	e.aborted.Store(true)
	e.finish()
}

// Abort cancels the traversal from outside a visitor: workers observe the
// abort flag in their pop loops and exit without draining remaining work,
// blocked workers are woken, and Wait returns err (unless a visitor error was
// recorded first). Safe for concurrent use; the first cause wins. Used by
// Config.Context cancellation and by serving layers tearing down a query
// whose client went away.
func (e *Engine[V]) Abort(err error) {
	e.fail(err)
}

// retire folds a finished worker's local counters into the engine totals.
// Deferred (as a bound method call, not a closure) by the worker loops.
func (e *Engine[V]) retire(ctx *Ctx[V], id int) {
	e.visits.Add(ctx.stats.visits)
	e.pushes.Add(ctx.stats.pushes)
	e.pruned.Add(ctx.stats.pruned)
	e.workerVisits[id] = ctx.stats.visits
	e.wg.Done()
}

// worker is the engine's one loop (§III): pop from the owned queue, visit,
// push to the hash-selected owner. It pops a window of visitors under one
// lock acquisition — Config.Prefetch wide when a pop-window hook is
// registered, otherwise one — announces a multi-visitor window to the storage
// back end so adjacency I/O starts immediately, then executes the visits in
// window order while the reads are in flight. Every popped visitor came off
// this worker's queue, so exclusive vertex ownership holds at any width.
//
//lint:hotpath
func (e *Engine[V]) worker(id int) {
	ctx := &Ctx[V]{engine: e, Worker: id, Scratch: e.res.scratch[id], out: e.res.outs[id], stats: &e.res.stats[id]}
	defer e.retire(ctx, id)
	q := e.queues[id]
	width, window := 1, ctx.stats.pop[:0]
	if e.prefetch != nil && e.cfg.Prefetch > 1 {
		width = e.cfg.Prefetch
		window = make([]pq.Item, 0, width)
	}
	// In memory the worker publishes what it is visiting for the senders'
	// urgent trigger (mailbox.go); on a device every visit ends in a flush.
	publish := !e.everyVisit
	// The abort check at the loop top is the engine's cancellation point: an
	// aborted worker exits without draining its queue (Wait settles what is
	// left), so a deadline fires in at most one visit's time regardless of
	// how much work is still queued.
	for !e.aborted.Load() {
		window = q.tryPopBatch(window[:0], width)
		if len(window) == 0 {
			// Drain trigger: deliver every buffered visitor before blocking,
			// so a waiting worker never holds undelivered work. A worker
			// about to block yields anyway, so the record starts afresh.
			ctx.out.flush()
			ctx.out.delivered = math.MaxUint64
			if publish {
				q.visiting.Store(0)
			}
			it, ok := q.pop()
			if !ok {
				return
			}
			window = append(window, it)
		}
		// Step aside (mailbox.go): this worker handed another queue better
		// work than its own next visitor, so that queue's owner should have
		// the processor first.
		stepAside := publish && ctx.out.delivered < window[0].Pri
		ctx.out.delivered = math.MaxUint64
		if publish {
			q.visiting.Store(window[0].Pri)
		}
		if invariant.Enabled {
			for _, it := range window {
				if o := e.owner(it.V); o != id {
					invariant.Failf("owner rule: visitor for vertex %d (owner %d) popped by worker %d", it.V, o, id)
				}
			}
			for owner, buf := range ctx.out.bufs {
				if e.everyVisit && len(buf) != 0 {
					invariant.Failf("delivery rule: worker %d popped holding %d undelivered visitors for worker %d", id, len(buf), owner)
				}
			}
			if p := q.visiting.Load(); e.everyVisit && p != 0 {
				invariant.Failf("delivery rule: worker %d published priority %d on a traversal that delivers after every visit", id, p)
			}
			if e.everyVisit && stepAside {
				invariant.Failf("delivery rule: worker %d stepped aside on a traversal that delivers after every visit", id)
			}
		}
		if stepAside {
			runtime.Gosched()
		}
		if len(window) > 1 && !e.aborted.Load() {
			e.prefetch(window, ctx.Scratch)
		}
		// An abort landing mid-window skips the remaining visits but still
		// settles and finishes every popped visitor: they left the queue, so
		// Wait's drain will not see them.
		for _, it := range window {
			if !e.aborted.Load() {
				ctx.stats.visits++
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
			if e.everyVisit {
				ctx.out.flush()
			}
		}
	}
}

// drainAborted settles every visitor an aborted traversal left queued — all
// queues, all worker outboxes — so a storage back end's settle counters return
// to where the traversal found them on a mount that outlives the query. Wait
// runs it once the workers have exited, when nothing can deliver into a queue
// any more: a drain each worker ran on its own way out missed what a
// still-running neighbour flushed into its queue afterwards, and counters fed
// in pairs never recover such a miss. What is drained is what the Terminator
// still counts (it saw a Start at every queueing site and a Finish for every
// popped visitor), which `-tags invariants` asserts — on completed traversals
// too, where that count is zero and every other build skips the walk
// (Workers queues and Workers x Workers outbox buckets). Under
// DeliverEveryVisit a worker flushes after the visit an abort cut short too
// (into queues this drain empties), so its outbox is already empty here.
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
		// Every queue is marked done by now, so pop returns false on empty
		// instead of blocking.
		for it, ok := q.pop(); ok; it, ok = q.pop() {
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
