package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/pq"
)

// This file is the engine's reuse layer, built for long-lived serving
// processes (internal/server): a single traversal allocates per-worker
// visitor queues, mailbox outboxes, and adjacency scratch, which for the
// repository defaults (hundreds of workers, KiB-scale scratch blocks) is the
// dominant steady-state allocation of a query. EnginePool recycles those
// resources across traversals so a query service reaches a zero-allocation
// steady state on everything except the result arrays themselves.

// workerStats is one worker's hot, written-on-every-visit state: the
// visit/push/prune counters and the one-visitor pop window. The cells live in
// one contiguous array (engineRes.stats), so without padding adjacent workers'
// cells would share cache lines and every write would ping-pong the line
// between cores; the pad gives each worker a 64-byte line of its own. The pop
// window sits here for the same reason: as a 24-byte heap object of its own
// it lands next to another worker's, and every pop becomes a shared write.
type workerStats struct {
	visits uint64
	pushes uint64
	pruned uint64
	pop    [1]pq.Item
	_      [16]byte
}

// engineRes is the recyclable per-worker state of one engine run: the
// visitor queues (mailboxes), the batching outboxes and the adjacency scratch
// buffers. Nothing in it is sized by the vertex count. A resource set is
// built for one normalized Config and may only be reused under the same
// Workers and SemiSort settings.
type engineRes[V graph.Vertex] struct {
	queues  []*workQueue
	scratch []*graph.Scratch[V]
	stats   []workerStats
	outs    []*outbox

	// pooled marks a set currently sitting on the free list. Only consulted
	// under `-tags invariants`, where releasing a set twice — which would let
	// two concurrent traversals share queues — panics instead of corrupting
	// both traversals. Reads and writes are single-threaded: exactly one
	// goroutine holds a set between acquire and release.
	pooled bool
}

func newEngineRes[V graph.Vertex](cfg Config) *engineRes[V] {
	r := &engineRes[V]{
		queues:  make([]*workQueue, cfg.Workers),
		scratch: make([]*graph.Scratch[V], cfg.Workers),
		stats:   make([]workerStats, cfg.Workers),
		outs:    make([]*outbox, cfg.Workers),
	}
	for i := range r.queues {
		q := &workQueue{heap: pq.New(cfg.SemiSort)}
		q.cond.L = &q.mu
		r.queues[i] = q
		r.scratch[i] = &graph.Scratch[V]{}
	}
	for i := range r.outs {
		r.outs[i] = newOutbox(r.queues)
	}
	return r
}

// reset returns the resource set to its pristine state: outbox buffers are
// discarded first (an aborted worker can exit holding undelivered visitors),
// then the queues are emptied and reopened, and their published priority is
// zeroed (an aborted worker exits without storing 0). Scratch keeps its
// decode buffers — reusing them is the point — but drops any storage-backend
// prefetch session, which is tied to the graph of the previous run.
func (r *engineRes[V]) reset() {
	for _, o := range r.outs {
		o.reset()
	}
	for _, q := range r.queues {
		q.mu.Lock()
		q.heap.Reset()
		q.done = false
		q.mu.Unlock()
		q.visiting.Store(0)
	}
	for _, s := range r.scratch {
		s.Prefetch = nil
	}
	for i := range r.stats {
		r.stats[i] = workerStats{} // counters belong to the finished traversal
	}
	if invariant.Enabled {
		r.assertPristine()
	}
}

// assertPristine panics unless the resource set is in its post-reset state:
// every queue empty, reopened and publishing priority 0, every outbox buffer
// empty. A dirty set re-entering the pool would leak visitors from one
// traversal into the next — a cross-query correctness breach that manifests
// as wrong labels long after the offending query finished. Called from reset
// under `-tags invariants`; exercised directly by tests.
func (r *engineRes[V]) assertPristine() {
	for i, q := range r.queues {
		q.mu.Lock()
		n, done := q.heap.Len(), q.done
		q.mu.Unlock()
		if n != 0 {
			invariant.Failf("engine pool: recycled queue %d still holds %d visitors after reset", i, n)
		}
		if done {
			invariant.Failf("engine pool: recycled queue %d still marked done after reset", i)
		}
		if p := q.visiting.Load(); p != 0 {
			invariant.Failf("engine pool: recycled queue %d still publishes priority %d after reset", i, p)
		}
	}
	for i, o := range r.outs {
		for owner, buf := range o.bufs {
			if len(buf) != 0 {
				invariant.Failf("engine pool: recycled outbox %d still buffers %d visitors for owner %d after reset", i, len(buf), owner)
			}
		}
	}
}

// EnginePool runs traversals on recycled engine resources. It is safe for
// concurrent use: each traversal acquires its own resource set (allocating
// one only when the free list is empty), and runKernel returns the set, reset,
// once the traversal is over. The pool is unbounded — a serving layer bounds it implicitly
// by bounding concurrent traversals (admission control).
//
// All traversals run under the pool's Config; the per-query knob is the
// context passed to BFS/SSSP/CC, which cancels that traversal alone.
type EnginePool[V graph.Vertex] struct {
	cfg  Config
	mu   sync.Mutex
	free []*engineRes[V]

	acquires atomic.Uint64
	reuses   atomic.Uint64
}

// NewEnginePool creates a pool whose traversals all run under cfg
// (normalized once, here). cfg.Context is ignored; contexts are per-query.
func NewEnginePool[V graph.Vertex](cfg Config) *EnginePool[V] {
	cfg.normalize()
	cfg.Context = nil
	return &EnginePool[V]{cfg: cfg}
}

// Config reports the pool's normalized engine configuration.
func (p *EnginePool[V]) Config() Config { return p.cfg }

// Idle reports the number of resource sets currently on the free list.
func (p *EnginePool[V]) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Reuses reports how many acquisitions were served from the free list versus
// total acquisitions, the pool's effectiveness counters.
func (p *EnginePool[V]) Reuses() (reused, total uint64) {
	return p.reuses.Load(), p.acquires.Load()
}

func (p *EnginePool[V]) acquire() *engineRes[V] {
	p.acquires.Add(1)
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.reuses.Add(1)
		if invariant.Enabled {
			r.pooled = false
		}
		return r
	}
	p.mu.Unlock()
	return newEngineRes[V](p.cfg)
}

func (p *EnginePool[V]) release(r *engineRes[V]) {
	if invariant.Enabled {
		if r.pooled {
			invariant.Failf("engine pool: resource set released twice (two traversals would share queues)")
		}
		r.pooled = true
	}
	r.reset()
	p.mu.Lock()
	p.free = append(p.free, r)
	p.mu.Unlock()
}

// queryCfg is the pool configuration specialized to one query's context.
func (p *EnginePool[V]) queryCfg(ctx context.Context) Config {
	cfg := p.cfg
	cfg.Context = ctx
	return cfg
}

// BFS runs a breadth-first search on recycled resources; see the package
// function BFS. ctx cancels the traversal (Config.Context).
func (p *EnginePool[V]) BFS(ctx context.Context, g graph.Adjacency[V], src V) (*BFSResult[V], error) {
	return bfsKernel(g, src, p.queryCfg(ctx), p)
}

// SSSP runs single-source shortest paths on recycled resources; see the
// package function SSSP. ctx cancels the traversal (Config.Context).
func (p *EnginePool[V]) SSSP(ctx context.Context, g graph.Adjacency[V], src V) (*SSSPResult[V], error) {
	return ssspKernel(g, src, p.queryCfg(ctx), p)
}

// CC computes connected components on recycled resources; see the package
// function CC. ctx cancels the traversal (Config.Context).
func (p *EnginePool[V]) CC(ctx context.Context, g graph.Adjacency[V]) (*CCResult[V], error) {
	return ccKernel(g, p.queryCfg(ctx), p)
}
