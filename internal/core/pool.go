package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/pq"
)

// This file is the engine's reuse layer, built for long-lived serving
// processes (internal/server): a single traversal allocates visitor queues
// and per-runner mailbox outboxes and adjacency scratch, which for the
// repository defaults (hundreds of queues, KiB-scale scratch blocks) is the
// dominant steady-state allocation of a query. EnginePool recycles those
// resources across traversals so a query service reaches a zero-allocation
// steady state on everything except the result arrays themselves.

// workerStats is one runner's hot, written-on-every-visit state: the
// visit/push/prune counters and the in-memory pop batch. The cells live in one
// contiguous array (engineRes.stats); the pad rounds each to whole 64-byte
// lines, so no write ping-pongs a line another runner's cell shares.
type workerStats struct {
	visits uint64
	pushes uint64
	pruned uint64
	pop    [popBatch]pq.Item
	_      [40]byte
}

// engineRes is the recyclable state of one engine run: the visitor queues
// (mailboxes) and, per runner, a batching outbox, adjacency scratch, a
// counter cell and a parker. Nothing in it is sized by the vertex count. A
// resource set is built for one normalized Config and may only be reused
// under the same Workers and SemiSort settings; its runner state grows to
// the most runners a traversal on it started.
type engineRes[V graph.Vertex] struct {
	queues  []*workQueue
	scratch []*graph.Scratch[V]
	stats   []workerStats
	outs    []*outbox
	parkers []*parker
	parked  []parkedSet

	// pooled marks a set currently sitting on the free list. Only consulted
	// under `-tags invariants`, where releasing a set twice — which would let
	// two concurrent traversals share queues — panics instead of corrupting
	// both traversals. Reads and writes are single-threaded: exactly one
	// goroutine holds a set between acquire and release.
	pooled bool
}

func newEngineRes[V graph.Vertex](cfg Config) *engineRes[V] {
	r := &engineRes[V]{queues: make([]*workQueue, cfg.Workers)}
	for i := range r.queues {
		r.queues[i] = &workQueue{heap: pq.New(cfg.SemiSort)}
	}
	r.grow(min(cfg.Workers, runtime.GOMAXPROCS(0)))
	return r
}

// grow readies the per-runner state of n runners.
func (r *engineRes[V]) grow(n int) {
	for len(r.outs) < n {
		r.outs = append(r.outs, newOutbox(r.queues))
		r.scratch = append(r.scratch, &graph.Scratch[V]{})
		r.parkers = append(r.parkers, &parker{ch: make(chan struct{}, 1)})
		r.parked = append(r.parked, parkedSet{})
	}
	if len(r.stats) < n {
		r.stats = make([]workerStats, n)
	}
}

// reset returns the resource set to its pristine state: outbox buffers are
// discarded (an aborted runner can exit holding undelivered visitors), the
// queues emptied and their counts zeroed, parked visitors dropped. Scratch
// keeps its decode buffers and the back end's Request buffers (each back end
// checks the type, and the shard router the member count, of what it finds
// there), and drops the started read, which was the previous run's.
func (r *engineRes[V]) reset() {
	for _, o := range r.outs {
		o.reset()
	}
	for _, q := range r.queues {
		q.mu.Lock()
		q.heap.Reset()
		q.heap.Index(nil) // the slot array was the finished traversal's
		q.publish()
		q.mu.Unlock()
		q.visits, q.merged, q.term = 0, 0, nil
	}
	for _, s := range r.scratch {
		s.Read = nil
	}
	for i := range r.parked {
		r.parked[i].reset()
	}
	for i := range r.stats {
		r.stats[i] = workerStats{} // counters belong to the finished traversal
	}
	if invariant.Enabled {
		r.assertPristine()
	}
}

// assertPristine panics unless the resource set is in its post-reset state:
// every queue empty and held by no runner, every outbox buffer empty, no
// visitor parked. A dirty set re-entering the pool would leak visitors, or a
// queue no runner can claim, into the next traversal. Called from reset
// under `-tags invariants`; exercised directly by tests.
func (r *engineRes[V]) assertPristine() {
	for i, q := range r.queues {
		q.mu.Lock()
		n := q.heap.Len()
		q.mu.Unlock()
		if n != 0 {
			invariant.Failf("engine pool: recycled queue %d still holds %d visitors after reset", i, n)
		}
		if c := q.claim.Load(); c != 0 {
			invariant.Failf("engine pool: recycled queue %d still claimed by runner %d after reset", i, c-1)
		}
	}
	for i, o := range r.outs {
		for owner, buf := range o.bufs {
			if len(buf) != 0 {
				invariant.Failf("engine pool: recycled outbox %d still buffers %d visitors for owner %d after reset", i, len(buf), owner)
			}
		}
	}
	for i := range r.parked {
		if n := len(r.parked[i].groups); n != 0 {
			invariant.Failf("engine pool: recycled runner %d still has visitors parked on %d reads after reset", i, n)
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
