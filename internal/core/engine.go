// Package core implements the paper's primary contribution: a multithreaded
// asynchronous visitor-queue engine for graph traversal (§III).
//
// The engine keeps prioritized visitor queues: Workers of them in memory,
// one per runner on a device. A visitor destined for vertex v is pushed to
// the queue selected by a hash of v, and a queue is popped only by the
// runner goroutine holding it, so a vertex is only ever visited by one
// runner at a time. That ownership discipline provides the
// paper's "exclusive access to a vertex when executing, removing the need for
// additional vertex-level locking", and a near-uniform hash spreads high-cost
// hub vertices across queues for load balance. The paper makes one thread
// both the owner of a queue and the unit of scheduling, and oversubscribes
// threads so that enough synchronous flash reads are in flight; here at most
// GOMAXPROCS runners serve the queues (Engine.run). In memory each holds one
// queue at a time and moves to the queue with the best head, so §III-B's
// "Dijkstra within a queue" order does not depend on a scheduler that knows
// nothing of priorities. On a device each owns one queue for the whole
// traversal and never waits in a read while it has other work: it pops a
// sweep of visitors whose reads the storage back end starts in one call,
// merging neighbouring extents, and a visitor whose adjacency is not
// resident is parked on its read and runs once its landing is posted to
// the runner (Engine.runParked), so the reads in flight are not bounded by
// the goroutine count. The relaxation kernel's queues hold at most one visitor
// per vertex: a delivered visitor merges with the one queued for its vertex,
// the better one staying (workQueue.merge), so each queue's "Dijkstra
// within a queue" pops no visitor a better one has overtaken. There are no
// barriers between traversal steps: runners run label-correcting visitors
// fully asynchronously and the traversal completes when every queued or
// parked visitor has finished (termination is detected with an atomic
// outstanding-work counter).
//
// The implementation is layered into three files:
//
//   - mailbox.go — the delivery layer: lock-protected ownership queues,
//     per-runner outboxes that batch pushes per destination queue (delivered
//     when a bucket fills, its runner is about to park, or on a device a
//     visit ends), the park/wake rule of the runners, the visitors a device
//     runner parked on their reads, and its completion list;
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
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/pq"
)

// Config controls an Engine run.
type Config struct {
	// Workers is the paper's thread count. The paper oversubscribes (512
	// threads on 16 cores) to reduce queue lock contention and to keep flash
	// reads in flight; values far above GOMAXPROCS are expected. It is not
	// the number of goroutines: R = min(Workers, GOMAXPROCS) runners serve
	// the queues. In memory it is the number of ownership queues, and a
	// runner holds one at a time. On a device the engine keeps R queues, one
	// per runner for the whole traversal, and Workers sets only how much a
	// runner keeps parked on reads (Workers x Prefetch / R, see
	// Engine.runParked) and the width of the BFS direction driver. Defaults
	// to 4 x GOMAXPROCS.
	Workers int
	// SemiSort enables the secondary vertex-id sort key inside each queue,
	// the paper's semi-external locality optimization (§IV-C).
	SemiSort bool
	// Prefetch is the sweep width of a device traversal (see
	// Engine.runParked): a device runner pops up to max(Prefetch, 1)
	// visitors and starts their reads in one graph.BatchAdjacency.Request,
	// which may merge neighbouring extents into one device operation. Wider
	// than one, it also bounds what a runner keeps parked. An in-memory graph
	// ignores it (its runners pop a fixed batch).
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
	// runners are woken (also those waiting on a read), and Wait returns the
	// cancellation error (a serving layer's per-query deadline or client
	// disconnect). Nil disables it.
	Context context.Context
}

func (c *Config) normalize() {
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
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
	Pruned uint64
	// Merged counts the visitors a queue dropped at delivery because it held
	// one for the same vertex at an equal-or-better priority, or because the
	// delivered one beat and replaced it (Engine.mergeVisitors): overtaken
	// visitors that were never run. Visits + Merged = Pushes + seeds on a
	// completed traversal. Zero for custom visitors and for the direction
	// driver.
	Merged uint64
	// MaxQueue is the high-water mark across the visitor queues: on a
	// device, the R queues, one per runner.
	MaxQueue int
	Workers  int // Config.Workers of the run
	// PeakOutstanding is the maximum number of simultaneously queued or
	// executing visitors: a direct measurement of the graph's available
	// path parallelism (§III-B1 — the chain of Figure 2 pins this near 1,
	// scale-free graphs push it toward the frontier size).
	PeakOutstanding int64
	// WorkerVisits is the per-queue visit count, for load-balance analysis
	// (§III-A: the near-uniform hash should spread hub vertices evenly): one
	// count per queue, Workers in memory and R on a device; for the direction
	// driver, per phase worker that ran.
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
	return fmt.Sprintf("visits=%d pushes=%d pruned=%d merged=%d maxQueue=%d peak=%d workers=%d",
		s.Visits, s.Pushes, s.Pruned, s.Merged, s.MaxQueue, s.PeakOutstanding, s.Workers)
}

// Ctx is the per-runner context handed to every visitor invocation. It
// carries the runner's scratch buffers (for semi-external adjacency reads)
// and the push interface used to queue adjacent visitors.
type Ctx[V graph.Vertex] struct {
	engine *Engine[V]
	// Worker is the queue the runner holds while the visitor runs: the
	// owner of every vertex it visits, in [0, Config.Workers) in memory and
	// in [0, R) on a device.
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
	// stop, closed by Wait once the runners have exited, retires the watcher.
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

	// request is the read hook of a device traversal (SetRequest).
	request func(sweep []pq.Item, reads []any, waits []<-chan struct{}, to graph.Completions, scratch *graph.Scratch[V]) (full bool)

	// settle, when set (SetSettle), receives the visitor lifecycle: a
	// VertexQueued at every push site and a VertexSettled for every visitor
	// that leaves the engine — visited, dropped stale, or drained by Wait
	// after an abort — at the Terminator's Start/Finish sites, so once Wait
	// returns the two streams balance per vertex.
	settle graph.Settler
	// device: the graph lives on a storage device (DeliverEveryVisit).
	device bool
	// runners is R, the number of runner goroutines Start launched.
	runners int
	// leftParked is how many parked visitors Wait's drain found: none
	// unless the traversal was aborted.
	leftParked int
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

// SetRequest registers the read hook of a device traversal: fn gets each
// sweep a runner popped, or a parked group whose fetch landed, with the
// runner's completion sink and scratch, and fills reads and waits as
// graph.BatchAdjacency.Request does; it may reorder sweep, moving reads
// along. A visitor with a wait is parked with its read until the sink is
// posted that wait; the rest run at once, in sweep order, each with its read
// in scratch.Read. full stops a runner with sweeps of one popping. Must be
// called before Start.
func (e *Engine[V]) SetRequest(fn func(sweep []pq.Item, reads []any, waits []<-chan struct{}, to graph.Completions, scratch *graph.Scratch[V]) (full bool)) {
	e.request = fn
}

// SetSettle registers a traversal-state sink (see graph.Settler): the engine
// notifies it of every visitor queued and settled, the feed behind the SEM
// cache's pending-run spans. Must be called before Start and before any
// Push. The sink is called from every runner concurrently; it must be atomic
// and cheap.
func (e *Engine[V]) SetSettle(s graph.Settler) { e.settle = s }

// DeliverEveryVisit tells the engine its graph lives on a device: the engine
// keeps R = min(Workers, GOMAXPROCS) queues, runner r owns queue r
// throughout, every runner delivers its outbox after each visit, so a
// visitor it pushed is never held back while the runner's reads are in the
// device, and a visitor whose read has not landed is parked (SetRequest).
// Must precede Start and any Push.
func (e *Engine[V]) DeliverEveryVisit() {
	e.device = true
	e.runners = min(len(e.queues), runtime.GOMAXPROCS(0))
	e.queues = e.queues[:e.runners]
}

// mergeVisitors makes every queue keep one visitor per vertex: slot, one
// word per vertex of the graph, all zero, indexes the queues' heaps (each
// vertex's word is its owner's), and a delivery that meets a visitor queued
// for its vertex keeps the better of the two and retires the other
// (workQueue.merge). For visitors whose worse duplicates a visit would drop
// unrun, as the relaxation kernel's are. Must follow SetSettle and
// DeliverEveryVisit and precede Start and any Push.
func (e *Engine[V]) mergeVisitors(slot []int32) {
	for _, q := range e.queues {
		q.heap.Index(slot)
		q.term, q.settle = e.term, e.settle
	}
}

// Start launches the min(Workers, GOMAXPROCS) runner goroutines. It must be
// called exactly once, before Wait.
func (e *Engine[V]) Start() {
	if !e.device {
		e.runners = min(len(e.queues), runtime.GOMAXPROCS(0))
	}
	n := e.runners
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
		Workers:         e.cfg.Workers,
		PeakOutstanding: e.term.Peak(),
		WorkerVisits:    make([]uint64, len(e.queues)),
	}
	for i, q := range e.queues {
		st.WorkerVisits[i] = q.visits
		st.Merged += q.merged
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

// Abort cancels the traversal, from outside a visitor or with a visitor's
// error: runners exit at their next abort check without draining, parked
// runners are woken, and Wait returns the first cause. Safe for concurrent use.
func (e *Engine[V]) Abort(err error) {
	e.errOnce.Do(func() { e.err = err })
	e.aborted.Store(true)
	e.finish()
}

// retire folds a finished runner's counters into the engine totals and lets
// go of a device runner's queues. Deferred as a bound method, not a closure.
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
// runner pops popBatch visitors at a time; a device runner runs runParked
// instead. Every popped visitor came off a queue the runner holds, so
// exclusive vertex ownership holds at any width.
//
//lint:hotpath
func (e *Engine[V]) run(id int) {
	ctx := &Ctx[V]{engine: e, Worker: id, Scratch: e.res.scratch[id], out: e.res.outs[id], stats: &e.res.stats[id]}
	defer e.retire(ctx, id)
	if e.device {
		e.runParked(ctx, id)
		return
	}
	// The abort check at the loop top is the cancellation point: an aborted
	// runner exits without draining (Wait settles what is left).
	for !e.aborted.Load() {
		held := e.claim(id, ctx.Worker)
		if held < 0 {
			if held = e.park(id, ctx.Worker, true); held < 0 {
				return
			}
		}
		q := e.queues[held]
		// An abort landing mid-batch skips the remaining visits but still
		// settles and finishes every popped visitor: they left the queue, so
		// Wait's drain will not see them.
		for _, it := range q.tryPopBatch(ctx.stats.pop[:0], popBatch) {
			e.runVisitor(ctx, id, held, it)
		}
		q.claim.Store(0)
	}
}

// runParked is the loop of a device traversal. Runner id owns queue id, one
// of R, for the whole traversal. Its pop is a sweep of up to
// max(Config.Prefetch, 1) visitors off that queue, whose reads the request
// hook starts in one call. A visitor whose adjacency is not resident is
// parked on its read — the Terminator still counts it — and the rest run at
// once. Landed reads run first, in landing order, a fetch's visitors together
// (one still under another fetch parks again), and the runner blocks only
// with nothing else to run. A runner with parked visitors stops popping at
// its bound: with sweeps wider than one, its share of Workers x Prefetch —
// what Workers queues held popped when each had a window of its own — and
// with sweeps of one, while the back end reports full.
//
//lint:hotpath
func (e *Engine[V]) runParked(ctx *Ctx[V], id int) {
	ps, p := &e.res.parked[id], e.res.parkers[id]
	q := e.queues[id]
	width := max(e.cfg.Prefetch, 1)
	bound := width * e.cfg.Workers / e.runners
	full := false
	for !e.aborted.Load() {
		if i := ps.landing(p); i >= 0 {
			// The group goes back through the hook, which re-checks the read
			// each visitor carries: one whose extent is under another fetch
			// too parks again on it.
			e.runSweep(ctx, id, ps, ps.groups[i].items, ps.groups[i].reads)
			ps.remove(i)
			full = false
			continue
		}
		popping := ps.n == 0 || (width == 1 && !full) || (width > 1 && ps.n < bound)
		var sweep []pq.Item
		if popping && q.head.Load() != 0 {
			sweep = q.tryPopBatch(ps.sweep[:0], width)
		}
		if len(sweep) == 0 {
			if e.park(id, ctx.Worker, popping) < 0 && e.done.Load() {
				return
			}
			continue // a queue has work, or a read landed
		}
		reads := slices.Grow(ps.reads[:0], len(sweep))[:len(sweep)]
		k := min(len(ps.free), len(sweep)) // reads to reuse; the rest are nil
		clear(reads[copy(reads, ps.free[len(ps.free)-k:]):])
		ps.sweep, ps.reads, ps.free = sweep, reads, ps.free[:len(ps.free)-k]
		full = e.runSweep(ctx, id, ps, sweep, reads)
	}
}

// runSweep hands a sweep and its reads to the request hook, parks each visitor
// the hook returned a wait for, and runs the rest at once in sweep order,
// keeping their reads for reuse. It reports the back end full.
//
//lint:hotpath
func (e *Engine[V]) runSweep(ctx *Ctx[V], id int, ps *parkedSet, sweep []pq.Item, reads []any) (full bool) {
	waits := slices.Grow(ps.waits[:0], len(sweep))[:len(sweep)]
	if e.request != nil && !e.aborted.Load() {
		full = e.request(sweep, reads, waits, e.res.parkers[id], ctx.Scratch)
	}
	for i, it := range sweep {
		if waits[i] != nil {
			ps.add(waits[i], it, reads[i])
			continue
		}
		ctx.Scratch.Read = reads[i]
		e.runVisitor(ctx, id, id, it)
		if reads[i] != nil {
			ps.free = append(ps.free, reads[i])
		}
	}
	ctx.Scratch.Read = nil
	clear(waits)
	ps.waits = waits
	return full
}

// runVisitor runs one popped visitor of queue held — unless the traversal was
// aborted, which skips the visit — and then settles and finishes it and, on a
// device, delivers the runner's outbox (the visit trigger).
//
//lint:hotpath
func (e *Engine[V]) runVisitor(ctx *Ctx[V], id, held int, it pq.Item) {
	if invariant.Enabled {
		e.assertHeld(ctx, id, held, it)
	}
	ctx.Worker = held
	if !e.aborted.Load() {
		ctx.stats.visits++
		e.queues[held].visits++
		if err := e.visit(ctx, it); err != nil {
			e.Abort(err)
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

// assertHeld checks, under `-tags invariants`, the owner rule at a visit:
// runner id holds queue held (on a device, its own), the visitor is held's,
// and on a device the runner holds no undelivered visitor.
func (e *Engine[V]) assertHeld(ctx *Ctx[V], id, held int, it pq.Item) {
	if c := e.queues[held].claim.Load(); c != int32(id+1) {
		invariant.Failf("owner rule: runner %d popped queue %d, which runner %d holds", id, held, c-1)
	}
	if o := e.owner(it.V); o != held {
		invariant.Failf("owner rule: visitor for vertex %d (queue %d) popped from queue %d", it.V, o, held)
	}
	if e.device && len(ctx.out.touched) != 0 {
		invariant.Failf("delivery rule: runner %d visits holding undelivered visitors for %d queues", id, len(ctx.out.touched))
	}
}

// claim returns the queue runner id now holds, or -1. A device runner holds
// its own queue throughout and reports it when it has work. An in-memory
// runner takes the best head of the queue it left and two random ones
// (MultiQueues' "two choices", Rihani, Sanders, Dementiev, SPAA 2015),
// failing those the best of every queue.
//
//lint:hotpath
func (e *Engine[V]) claim(id, last int) int {
	if e.device {
		if e.queues[id].head.Load() != 0 {
			return id
		}
		return -1
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
// nothing to run, delivers its outbox, marks itself sleeping, tries once more
// to claim (if popping) or to find a landing in its completion list, and
// waits for a wake-up only if that fails; a posted landing wakes it too
// (parker.Landed). It returns the queue it then holds, or -1 once a read has
// landed or the traversal is over.
//
//lint:hotpath
func (e *Engine[V]) park(id, last int, popping bool) int {
	e.res.outs[id].flush()
	p, ps := e.res.parkers[id], &e.res.parked[id]
	for {
		p.sleeping.Store(true)
		held := -1
		if popping {
			held = e.claim(id, last)
		}
		if held >= 0 || e.done.Load() || ps.landing(p) >= 0 {
			if !p.sleeping.CompareAndSwap(true, false) {
				<-p.ch // a waker saw the runner asleep first and owes it a token
			}
			return held
		}
		<-p.ch
	}
}

// drainAborted settles and finishes every visitor an aborted traversal left
// queued or parked — all queues, all runner outboxes, every visitor a runner
// parked on a read — so a storage back end's settle counters return to where
// the traversal found them on a mount that outlives the query, the
// Terminator reaches zero, and no parked visitor holds a read's bytes. Wait
// runs it once the runners have exited, when nothing can deliver into a
// queue any more. What is drained is what the Terminator still counts (a
// Start at every queueing site, a Finish for every visitor run), which
// `-tags invariants` asserts — on completed traversals too, where that count
// is zero. Every other build walks only an aborted traversal with a settle
// sink: without one nothing reads the counts, and the resource set's reset,
// or the collector, drops what is left.
func (e *Engine[V]) drainAborted() {
	if !invariant.Enabled && (e.settle == nil || !e.aborted.Load()) {
		return
	}
	drop := func(it pq.Item) {
		if e.settle != nil {
			e.settle.VertexSettled(it.V)
		}
		e.term.Finish()
	}
	for _, q := range e.queues {
		for it, ok := q.heap.Pop(); ok; it, ok = q.heap.Pop() {
			drop(it)
		}
	}
	for _, out := range e.res.outs {
		for owner, buf := range out.bufs {
			for _, it := range buf {
				drop(it)
			}
			out.bufs[owner] = buf[:0]
		}
	}
	for i := range e.res.parked {
		ps := &e.res.parked[i]
		for _, g := range ps.groups {
			for _, it := range g.items {
				drop(it)
			}
			e.leftParked += len(g.items)
		}
		ps.reset()
	}
	if invariant.Enabled && e.term.Outstanding() != 0 {
		invariant.Failf("settle feed: the terminator counts %d visitors queued or parked after Wait's drain", e.term.Outstanding())
	}
}
