package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/pq"
)

// This file is the engine's algorithm layer: one generic label-relaxation
// kernel that BFS, SSSP, and CC all instantiate (the paper's Algorithms 2 and
// 4 are the same visitor with different relaxation arithmetic). The kernel is
// parameterized over graph.Adjacency, so every algorithm runs unchanged
// against the in-memory CSR and the semi-external store — SEM traversals get
// SemiSort, the sweep, and mailbox batching with no per-backend visitor
// code.
//
// The shared visitor body (label-correcting, §III-B) is "claim, then push":
//
//	if it.Pri > label[v]: return              // overtaken in flight, drop
//	for each neighbor t of v:
//	    p = step(it.Pri, weight)              // propose a better label
//	    if p >= label[t]: continue            // already beaten: never queued
//	    if CAS-min(label[t], p): push(p, t)   // claim, then push
//
// The label is the vertex's one word: the lowest priority any sender has
// claimed for it so far. A proposal is dropped only when an equal-or-better
// one for the same vertex has already been claimed — and a claimed proposal
// is a seed or is pushed by the sender that won the claim, so it is
// registered with the Terminator before the traversal can end, will be
// visited, and will relax t at least as far. Each claimed value is pushed
// exactly once, so the visitor that holds the final value is the one that
// writes the parent. Final labels are therefore the ones the unfiltered
// kernel computes, and whichever proposal wins a tie is still a tree edge.
// The paper lets the owner decide everything (§III-B: push per edge, drop on
// arrival); here the label word is shared, like the direction driver's
// levels, while parents stay written by the owner alone (§III-A).
//
// Correctness does not depend on visit order: every relaxation is monotone,
// so any interleaving (including mailbox-delayed delivery) converges to the
// same labels, verified against the serial baselines in tests.

// stepFunc computes the label proposed to a neighbor reached over an edge of
// weight w from a vertex whose label just became pri.
type stepFunc func(pri uint64, w graph.Weight) uint64

func bfsStep(pri uint64, _ graph.Weight) uint64  { return pri + 1 }
func ssspStep(pri uint64, w graph.Weight) uint64 { return pri + uint64(w) }
func ccStep(pri uint64, _ graph.Weight) uint64   { return pri }

// kernelState is the per-traversal state of the shared relaxation kernel:
// the label (and optional parent) arrays and the relaxation arithmetic. Its
// visit method is the engine's VisitFunc — a named method rather than a
// closure so the per-visit path allocates nothing and carries the hotpath
// annotation.
type kernelState[V graph.Vertex] struct {
	g graph.Adjacency[V]
	// labels[t] is the lowest priority claimed for t so far: a seed's, or a
	// proposal's whose sender then pushed it. Any worker lowers it, with
	// sync/atomic only. The seeding in newKernelState and every read after
	// Wait are plain: they are ordered before Start and after Wait.
	labels []graph.Dist
	parent []V
	step   stepFunc
	// applied[v], built only under `-tags invariants`, is the priority of v's
	// last visit, written by v's owner; assertQuiescent compares it with the
	// label.
	applied []graph.Dist
}

// newKernelState builds the kernel state of one traversal and claims its
// seeds in labels: priority 0 for the single source *src (BFS, SSSP; the rest
// hold InfDist on entry), or, with src nil, every vertex's own id (CC) — so a
// proposal that cannot beat a seed is pruned like any other. The caller
// queues the matching seed visitors.
func newKernelState[V graph.Vertex](g graph.Adjacency[V], labels []graph.Dist, parent []V, step stepFunc, src *V) *kernelState[V] {
	if src != nil {
		labels[*src] = 0
	} else {
		for i := range labels {
			labels[i] = uint64(i)
		}
	}
	k := &kernelState[V]{g: g, labels: labels, parent: parent, step: step}
	if invariant.Enabled {
		k.applied = make([]graph.Dist, len(labels))
		initLabels[V](k.applied, nil)
	}
	return k
}

// visit is the shared visitor body (label-correcting, §III-B). The owner
// rule makes the parent writes race-free: vertex v is only ever visited by
// its hash-designated owning worker, which AssertOwned checks under
// `-tags invariants`.
//
//lint:hotpath
func (k *kernelState[V]) visit(ctx *Ctx[V], it pq.Item) error {
	v := V(it.V)
	if it.Pri > atomic.LoadUint64(&k.labels[v]) {
		return nil // overtaken in flight: a better proposal is already claimed
	}
	ctx.AssertOwned(v)
	if invariant.Enabled {
		k.applied[v] = it.Pri
	}
	var aux uint64
	if k.parent != nil {
		k.parent[v] = V(it.Aux)
		aux = uint64(v)
	}
	targets, weights, err := k.g.Neighbors(v, ctx.Scratch)
	if err != nil {
		return err
	}
	if weights == nil {
		for _, t := range targets {
			k.propose(ctx, k.step(it.Pri, 1), t, aux)
		}
	} else {
		for i, t := range targets {
			k.propose(ctx, k.step(it.Pri, weights[i]), t, aux)
		}
	}
	return nil
}

// propose queues a visitor for t at priority pri unless an equal-or-better
// one was already claimed: it lowers labels[t] to pri, and only the sender
// whose compare-and-swap lands pushes. A pruned proposal touches neither the
// Terminator nor the outbox.
//
//lint:hotpath
func (k *kernelState[V]) propose(ctx *Ctx[V], pri uint64, t V, aux uint64) {
	b := &k.labels[t]
	for {
		cur := atomic.LoadUint64(b)
		if pri >= cur {
			ctx.stats.pruned++
			return
		}
		if atomic.CompareAndSwapUint64(b, cur, pri) {
			ctx.Push(pri, t, aux)
			return
		}
	}
}

// assertQuiescent checks a completed traversal under `-tags invariants`:
// no visitor was left parked on a read (parked, what Wait's drain found),
// and every claimed proposal was delivered and applied, so every vertex's
// label is the priority its last visit applied.
func (k *kernelState[V]) assertQuiescent(parked int) {
	if parked != 0 {
		invariant.Failf("quiescence: a completed traversal left %d visitors parked on reads", parked)
	}
	for v, a := range k.applied {
		if a != k.labels[v] {
			invariant.Failf("proposal filter: vertex %d finished with claimed label %d but its last visit applied %d", v, k.labels[v], a)
		}
	}
}

// onDevice reports whether g's adjacency lives on a storage device: the one
// signal behind which BFS driver runs (drives) and when workers deliver (runKernel).
func onDevice[V graph.Vertex](g graph.Adjacency[V]) (graph.BatchAdjacency[V], bool) {
	ba, ok := g.(graph.BatchAdjacency[V])
	return ba, ok
}

// runKernel executes the shared label-relaxation traversal. labels must be
// length NumVertices and, with a single source, initialized to graph.InfDist
// ("initialized to infinity"); CC's seeds overwrite every entry. parent,
// when non-nil, records the proposing vertex of each accepted label (tree
// edges for BFS/SSSP); pass nil for algorithms without parent tracking
// (CC). The traversal is seeded from *src at priority 0 with
// itself as parent, or, when src is nil, from every vertex at priority = its
// own id. A non-nil pool lends the engine resources and takes them back.
func runKernel[V graph.Vertex](
	g graph.Adjacency[V],
	cfg Config,
	pool *EnginePool[V],
	labels []graph.Dist,
	parent []V,
	step stepFunc,
	src *V,
) (Stats, error) {
	cfg.normalize()
	var res *engineRes[V]
	if pool != nil {
		res = pool.acquire()
	} else {
		res = newEngineRes[V](cfg)
	}
	k := newKernelState(g, labels, parent, step, src)
	e := k.engine(cfg, res)
	e.Start()
	if src != nil {
		e.Push(0, *src, uint64(*src))
	} else {
		e.ParallelInit(uint64(len(labels)), func(i uint64) (uint64, V, uint64) {
			return i, V(i), 0
		})
	}
	st, err := e.Wait()
	if invariant.Enabled && err == nil {
		k.assertQuiescent(e.leftParked)
	}
	if pool != nil {
		pool.release(res)
	}
	return st, err
}

// engine wires an engine for the kernel onto res: on a device delivery after
// every visit and the read hook of a runner's sweep, and queues that keep one
// visitor per vertex.
func (k *kernelState[V]) engine(cfg Config, res *engineRes[V]) *Engine[V] {
	e := newEngine(cfg, k.visit, res)
	// An overtaken visitor will be dropped at visit time; the read hook moves
	// it behind the rest of its sweep and starts no read for it.
	if ba, ok := onDevice(k.g); ok {
		e.DeliverEveryVisit()
		e.SetRequest(func(sweep []pq.Item, reads []any, waits []<-chan struct{}, to graph.Completions, scratch *graph.Scratch[V]) bool {
			vs := scratch.Window[:0]
			for i, it := range sweep {
				if it.Pri <= atomic.LoadUint64(&k.labels[it.V]) {
					if j := len(vs); j != i {
						sweep[i], sweep[j] = sweep[j], it
						reads[i], reads[j] = reads[j], reads[i]
					}
					vs = append(vs, V(it.V))
				}
			}
			scratch.Window = vs
			if len(vs) == 0 {
				return false
			}
			return ba.Request(vs, reads[:len(vs)], waits[:len(vs)], to, scratch)
		})
	}
	// A visitor that meets a better or equal one queued for its vertex would
	// be dropped at its visit; its queue drops it at delivery instead, and a
	// better one takes the queued one's place.
	e.mergeVisitors(make([]int32, len(k.labels)))
	return e
}

// initLabels fills labels with InfDist and parent (if non-nil) with NoVertex.
func initLabels[V graph.Vertex](labels []graph.Dist, parent []V) {
	for i := range labels {
		labels[i] = graph.InfDist
	}
	if parent != nil {
		no := graph.NoVertex[V]()
		for i := range parent {
			parent[i] = no
		}
	}
}

// BFS computes a breadth-first search. On a graph that can serve in-edges
// and is not sparse behind a cache it runs the level-synchronous
// direction-switching driver (direction.go); otherwise, or when
// cfg.Direction forces it, the relaxation kernel with every edge weight
// treated as 1 (§III-B: "BFS = SSSP with all edge weights equal to 1"), so
// the same code path serves weighted graph storage. Levels are identical
// either way.
func BFS[V graph.Vertex](g graph.Adjacency[V], src V, cfg Config) (*BFSResult[V], error) {
	return bfsKernel(g, src, cfg, nil)
}

func bfsKernel[V graph.Vertex](g graph.Adjacency[V], src V, cfg Config, pool *EnginePool[V]) (*BFSResult[V], error) {
	cfg.normalize()
	if drives(cfg, g) {
		// The level-synchronous driver needs no engine resources (the pool, if
		// any, stays untouched).
		return hybridBFS(g, src, cfg)
	}
	n := g.NumVertices()
	if uint64(src) >= n {
		return nil, fmt.Errorf("core: source %d out of range for %d vertices", src, n)
	}
	res := &BFSResult[V]{
		Level:  make([]graph.Dist, n),
		Parent: make([]V, n),
	}
	initLabels(res.Level, res.Parent)
	st, err := runKernel(g, cfg, pool, res.Level, res.Parent, bfsStep, &src)
	res.Stats = st
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SSSP computes single-source shortest paths with the asynchronous
// label-correcting traversal of Algorithms 1 and 2: a hybrid of Bellman-Ford
// (label correction, no global ordering) and Dijkstra (each queue pops its
// locally shortest path first). Vertices may be visited multiple times; the
// relaxation predicate makes every visit monotone, so the final labels equal
// Dijkstra's. Only non-negative weights are supported (uint32 enforces this
// by construction).
func SSSP[V graph.Vertex](g graph.Adjacency[V], src V, cfg Config) (*SSSPResult[V], error) {
	return ssspKernel(g, src, cfg, nil)
}

func ssspKernel[V graph.Vertex](g graph.Adjacency[V], src V, cfg Config, pool *EnginePool[V]) (*SSSPResult[V], error) {
	n := g.NumVertices()
	if uint64(src) >= n {
		return nil, fmt.Errorf("core: source %d out of range for %d vertices", src, n)
	}
	res := &SSSPResult[V]{
		Dist:   make([]graph.Dist, n),
		Parent: make([]V, n),
	}
	initLabels(res.Dist, res.Parent)
	st, err := runKernel(g, cfg, pool, res.Dist, res.Parent, ssspStep, &src)
	res.Stats = st
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CC computes connected components of an undirected graph (the input must be
// symmetric, e.g. produced with Builder.Symmetrize). The computation starts a
// visitor at every vertex labeled with its own id; when traversals merge, the
// one started from the lowest id "takes over the remainder of both
// traversals" (§III-C). Prioritizing smaller candidate ids prunes doomed
// traversals early.
func CC[V graph.Vertex](g graph.Adjacency[V], cfg Config) (*CCResult[V], error) {
	return ccKernel(g, cfg, nil)
}

func ccKernel[V graph.Vertex](g graph.Adjacency[V], cfg Config, pool *EnginePool[V]) (*CCResult[V], error) {
	n := g.NumVertices()
	labels := make([]graph.Dist, n)
	// A nil source seeds every vertex with its own id as component id.
	st, err := runKernel(g, cfg, pool, labels, nil, ccStep, nil)
	if err != nil {
		return nil, err
	}
	res := &CCResult[V]{ID: make([]V, n), Stats: st}
	no := graph.NoVertex[V]()
	for i, l := range labels {
		if l == graph.InfDist {
			res.ID[i] = no
		} else {
			res.ID[i] = V(l)
		}
	}
	return res, nil
}
