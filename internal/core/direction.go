package core

// This file is the direction-switching BFS driver, and the rule by which BFS
// chooses between it and the asynchronous kernel (drives). The paper's engine
// wins by removing barriers, and on SSSP, CC and sparse high-diameter BFS
// behind a cache it does; but the densest frontier phases of scale-free
// graphs — where most edge traffic lives — are won by a different trick
// (Beamer-style direction switching, PAPERS.md): when the frontier's
// out-edges outnumber the unexplored region's, stop pushing and instead let
// every unvisited vertex scan its in-edges for a settled parent, breaking out
// of the scan at the first hit. A hub vertex with a million in-edges is then
// settled by one probe instead of receiving a million pushes: 3-11x behind a
// cache and 16-41x on the raw device on the scale-free rows of EXPERIMENTS.md
// "BFS chooses its driver".
//
// The driver is deliberately NOT the asynchronous engine: bottom-up scanning
// is only correct when "settled parent" is well-defined, which requires
// level-synchronous phases. So BFS has two implementations and picks one per
// traversal; code that must measure one side forces it (DirectionTopDown,
// DirectionHybrid).
//
// Phase correctness: top-down phases settle vertices with a CAS on the level
// word (Inf -> level+1); the CAS winner alone writes the parent and appends
// to its per-worker next-frontier list. Bottom-up phases partition the vertex
// id space, so each worker settles only vertices in its own range (plain
// store, atomic so concurrent phase readers see no torn word). All cross-
// phase visibility goes through the WaitGroup barrier. Levels are therefore
// deterministic and bit-identical to the asynchronous kernel's: a vertex's
// BFS level does not depend on which direction discovered it.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Direction selects which of the two BFS implementations runs, and the
// driver's phase policy.
type Direction int

const (
	// DirectionAuto, the zero value, chooses per traversal (see drives): the
	// hybrid driver below where the graph allows, else the asynchronous kernel.
	DirectionAuto Direction = iota
	// DirectionTopDown forces the asynchronous kernel — the classical push
	// direction, the paper's engine. The harness's paper exhibits set it.
	DirectionTopDown
	// DirectionBottomUp forces the driver and every phase of it to scan
	// unvisited vertices' in-edges for a settled parent. An ablation extreme:
	// profitable only for dense phases, pathological on long-diameter graphs.
	DirectionBottomUp
	// DirectionHybrid forces the driver, switching per phase on the α/β
	// frontier heuristics: bottom-up while the frontier is dense.
	DirectionHybrid
)

// Default α/β switch thresholds (Config.Alpha, Config.Beta), the classical
// direction-optimizing values. Mount paths that know the degree distribution
// derive graph-specific values with graph.DegreeStats.DirectionThresholds.
const (
	DefaultAlpha = 14
	DefaultBeta  = 24
)

func (d Direction) String() string {
	if d < DirectionAuto || d > DirectionHybrid {
		d = DirectionAuto
	}
	return [...]string{"auto", "topdown", "bottomup", "hybrid"}[d]
}

// cachedDensity is the edges-per-vertex bound below which DirectionAuto keeps
// a graph behind a block cache on the asynchronous kernel. A sparse graph's
// levels are many and narrow, and each level's barrier waits out its slowest
// miss while the kernel's queues keep every channel busy: the 128x128 grid (4
// edges a vertex, 253 levels) is 0.017 s asynchronous against 0.22 s on the
// driver. RMAT (26-31) and the web graph (12) have few, wide levels and are
// 3-11x faster on the driver; the bound sits between. Without a cache the
// driver's contiguous frontiers coalesce better (that grid: 0.32 against
// 0.72 s; a chain ties), and in memory there is no read to wait for: the
// driver wins or ties every row (EXPERIMENTS.md "BFS chooses its driver").
const cachedDensity = 8

// drives reports whether BFS on g under cfg runs the driver in this file. The
// forced directions answer for themselves; DirectionAuto asks, in O(1): can g
// serve in-edges (graph.InEdges), and if its adjacency sits behind a cache —
// on a device (graph.BatchAdjacency) whose mount set no pop window
// (cfg.Prefetch) — is it at least cachedDensity edges a vertex.
func drives[V graph.Vertex](cfg Config, g graph.Adjacency[V]) bool {
	switch cfg.Direction {
	case DirectionTopDown:
		return false
	case DirectionBottomUp, DirectionHybrid:
		return true
	}
	if _, ok := graph.InEdges(g); !ok {
		return false
	}
	if _, dev := onDevice(g); !dev || cfg.Prefetch > 1 {
		return true
	}
	ne, ok := g.(interface{ NumEdges() uint64 })
	return ok && ne.NumEdges() >= cachedDensity*g.NumVertices()
}

// BFSDriver names the implementation BFS runs on g under cfg, for the front
// ends that say which ran (traverse's bfs: line, /v1/graphs).
func BFSDriver[V graph.Vertex](g graph.Adjacency[V], cfg Config) string {
	if drives(cfg, g) {
		return "direction-switching"
	}
	return "asynchronous"
}

// ErrNoInEdges reports a forced bottom-up or hybrid traversal against a back
// end without reverse-adjacency capability (graph.InEdges). DirectionAuto
// never returns it: without the capability it runs the asynchronous kernel.
var ErrNoInEdges = errors.New("backend has no in-edge capability")

// serialPhaseEdges is the work estimate below which a phase runs inline in
// the driver goroutine instead of fanning out: on long-diameter graphs
// (chains, grids) every frontier is a handful of vertices and per-level
// goroutine spawns would dominate the traversal.
const serialPhaseEdges = 2048

// ioFanout is the slice of the frontier one worker of a top-down phase takes
// on an I/O-backed store (one that batches adjacency reads). Such a phase is
// bound by device latency, not by its edge count, so it fans out until every
// ioFanout vertices have a worker even when serialPhaseEdges would run it
// inline. The same 16 a raw-device mount pops and announces at once; behind
// the cache, where nothing is announced, it is what keeps a trickle phase
// from paying its misses one after another (EXPERIMENTS.md "The mount
// chooses", table 4).
const ioFanout = 16

// dirDriver is the per-traversal state of the hybrid driver.
type dirDriver[V graph.Vertex] struct {
	g      graph.Adjacency[V]
	in     graph.InAdjacency[V]
	scan   graph.InScanner[V]      // nil when in lacks bulk range scanning
	batch  graph.BatchAdjacency[V] // nil when g lacks read-ahead batching
	window int                     // cfg.Prefetch: top-down announce width
	level  []graph.Dist
	parent []V
	n      uint64
	ctx    context.Context // cfg.Context; nil when the traversal cannot be cancelled
	// front is the current frontier as a bitmap, rebuilt before each
	// bottom-up phase and read-only during it: a probe tests one bit of n/8
	// bytes per in-edge instead of loading an 8-byte level word from 8n.
	front []uint64
}

// markFrontier rebuilds front from the frontier list.
func (d *dirDriver[V]) markFrontier(frontier []V) {
	if d.front == nil {
		d.front = make([]uint64, (d.n+63)/64)
	}
	clear(d.front)
	for _, v := range frontier {
		d.front[v>>6] |= 1 << (v & 63)
	}
}

// canceled is the phase workers' cancellation poll — once per top-down
// window, once per bottom-up probe — so a deadline or a client disconnect
// stops a phase within one storage read instead of waiting the phase out. A
// non-blocking look at the Done channel: a live context costs no lock.
//
//lint:hotpath
func (d *dirDriver[V]) canceled() error {
	if d.ctx == nil {
		return nil
	}
	select {
	case <-d.ctx.Done():
		return d.ctx.Err()
	default:
		return nil
	}
}

// unvisited is the bottom-up need predicate: consulted (atomically — other
// workers are settling their own ranges concurrently) before any I/O or
// decode is spent on a vertex.
//
//lint:hotpath
func (d *dirDriver[V]) unvisited(v V) bool {
	return atomic.LoadUint64(&d.level[v]) == graph.InfDist
}

// dirWorker is one phase worker's private state, reused across phases.
type dirWorker[V graph.Vertex] struct {
	scratch *graph.Scratch[V]
	next    []V    // vertices this worker settled in the current phase
	mf      uint64 // out-degree sum of next (frontier edges of the next phase)
	visits  uint64 // vertices expanded (TD) or probed with in-lists (BU)
	edges   uint64 // edges examined
	total   uint64 // visits over all phases so far (Stats.WorkerVisits)
	err     error
}

// grow doubles next's capacity; kept out of the hotpath append sites so they
// stay allocation-free on the common path.
func (w *dirWorker[V]) grow() {
	next := make([]V, len(w.next), 2*cap(w.next)+64)
	copy(next, w.next)
	w.next = next
}

// topDown expands one slice of the current frontier: the CAS winner on a
// neighbor's level word settles it, records the parent, and claims it for
// the next frontier. On a mount that pops windows (cfg.Prefetch > 1: the raw
// device) each window of frontier vertices is announced to the batching back
// end before its expansions run — the pop-window trick of the asynchronous
// engine — so a slice's adjacency reads are in flight concurrently; behind
// the cache only the phase's ioFanout width overlaps them, and a window is
// one vertex.
//
//lint:hotpath
func (w *dirWorker[V]) topDown(d *dirDriver[V], frontier []V, nextLevel uint64) {
	for len(frontier) > 0 {
		if w.err = d.canceled(); w.err != nil {
			return
		}
		win := frontier[:min(len(frontier), max(d.window, 1))]
		frontier = frontier[len(win):]
		if d.batch != nil && len(win) > 1 {
			d.batch.NeighborsBatch(win, w.scratch)
		}
		for _, u := range win {
			w.visits++
			targets, _, err := d.g.Neighbors(u, w.scratch)
			if err != nil {
				w.err = err
				return
			}
			w.edges += uint64(len(targets))
			for _, t := range targets {
				if atomic.LoadUint64(&d.level[t]) != graph.InfDist {
					continue
				}
				if atomic.CompareAndSwapUint64(&d.level[t], graph.InfDist, nextLevel) {
					d.parent[t] = u
					w.mf += uint64(d.g.Degree(t))
					if len(w.next) == cap(w.next) {
						w.grow()
					}
					w.next = append(w.next, t)
				}
			}
		}
	}
}

// probe is the bottom-up relaxation for one unvisited vertex: scan its
// in-neighbors for a member of the current frontier (a set bit of d.front)
// and settle at the first hit. The store is exclusive — v lies in this worker's
// id range — and atomic so concurrent unvisited() readers never tear. The
// error is the traversal's cancellation, which makes a scanning back end stop
// issuing spans.
//
//lint:hotpath
func (w *dirWorker[V]) probe(d *dirDriver[V], v V, in []V, curLevel uint64) error {
	if err := d.canceled(); err != nil {
		return err
	}
	w.visits++
	w.edges += uint64(len(in))
	for _, u := range in {
		if d.front[u>>6]>>(u&63)&1 == 0 {
			continue
		}
		atomic.StoreUint64(&d.level[v], curLevel+1)
		d.parent[v] = u
		w.mf += uint64(d.g.Degree(v))
		if len(w.next) == cap(w.next) {
			w.grow()
		}
		w.next = append(w.next, v)
		break
	}
	return nil
}

// bottomUp scans this worker's vertex-id range for unvisited vertices with a
// settled in-neighbor. Back ends with bulk scanning (the semi-external store,
// the shard router) stream the range in storage order — the SEM sequential-
// scan phase; others fall back to per-vertex in-neighbor reads.
func (w *dirWorker[V]) bottomUp(d *dirDriver[V], lo, hi V, curLevel uint64) {
	visit := func(v V, in []V) error { return w.probe(d, v, in, curLevel) }
	if d.scan != nil {
		if err := d.scan.ScanInEdges(lo, hi, d.unvisited, visit, w.scratch); err != nil {
			w.err = err
		}
		return
	}
	for v := lo; v < hi; v++ {
		if !d.unvisited(v) {
			continue
		}
		in, err := d.in.InNeighbors(v, w.scratch)
		if err != nil {
			w.err = err
			return
		}
		if len(in) == 0 {
			continue
		}
		if err := visit(v, in); err != nil {
			w.err = err
			return
		}
	}
}

// phase runs one level on ws and is its barrier: a bottom-up phase cuts the
// vertex-id space, a top-down one the frontier, into one contiguous chunk per
// worker; a single worker runs inline in the driver goroutine.
func (d *dirDriver[V]) phase(ws []*dirWorker[V], frontier []V, useBU bool, curLevel uint64) {
	total := uint64(len(frontier))
	if useBU {
		total = d.n
	}
	if len(ws) == 1 {
		ws[0].run(d, frontier, useBU, 0, total, curLevel)
		return
	}
	chunk := (total + uint64(len(ws)) - 1) / uint64(len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		lo := uint64(i) * chunk
		if lo >= total {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(d, frontier, useBU, lo, min(lo+chunk, total), curLevel)
		}()
	}
	wg.Wait()
}

// run is one worker's share [lo, hi) of a phase: vertex ids bottom-up,
// frontier positions top-down.
func (w *dirWorker[V]) run(d *dirDriver[V], frontier []V, useBU bool, lo, hi, curLevel uint64) {
	if useBU {
		w.bottomUp(d, V(lo), V(hi), curLevel)
	} else {
		w.topDown(d, frontier[lo:hi], curLevel+1)
	}
}

// phaseWorkers scales the fan-out to the phase's work estimate, capped at the
// configured worker count: small phases run inline (see serialPhaseEdges),
// large ones use the full width — for SEM mounts the oversubscription hides
// device latency exactly as in the asynchronous engine.
func phaseWorkers(workers int, work uint64) int {
	if work <= serialPhaseEdges {
		return 1
	}
	return min(int(work/serialPhaseEdges), workers)
}

// hybridBFS is the level-synchronous direction-switching BFS driver.
// DirectionBottomUp forces every phase bottom-up; any other direction switches
// per phase, Alpha/Beta tuning the switch points. The resulting levels are
// bit-identical to the asynchronous kernel's (BFS levels are unique);
// parents are structurally valid tree edges, as everywhere else.
func hybridBFS[V graph.Vertex](g graph.Adjacency[V], src V, cfg Config) (*BFSResult[V], error) {
	cfg.normalize()
	in, ok := graph.InEdges(g)
	if !ok {
		return nil, fmt.Errorf("core: direction %s: %w", cfg.Direction, ErrNoInEdges)
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
	d := &dirDriver[V]{g: g, in: in, level: res.Level, parent: res.Parent, n: n, window: cfg.Prefetch, ctx: cfg.Context}
	d.scan, _ = g.(graph.InScanner[V])
	d.batch, _ = g.(graph.BatchAdjacency[V])

	// Phase workers exist up to the widest phase run so far, not cfg.Workers
	// up front: most traversals' phases mostly run inline, and the fold below
	// walks the phase's workers once a level.
	var workers []*dirWorker[V]

	// mu tracks the out-edge count of the unexplored region for the α
	// heuristic; mf is the current frontier's out-edge count.
	var mu uint64
	if ne, ok := g.(interface{ NumEdges() uint64 }); ok {
		mu = ne.NumEdges()
	} else {
		for v := uint64(0); v < n; v++ {
			mu += uint64(g.Degree(V(v)))
		}
	}

	d.level[src] = 0
	d.parent[src] = src
	frontier := []V{src}
	mf := uint64(g.Degree(src))
	mu -= mf

	st := Stats{Workers: cfg.Workers}
	useBU := cfg.Direction == DirectionBottomUp
	var curLevel, prevNf uint64
	for len(frontier) > 0 {
		if err := d.canceled(); err != nil {
			return nil, err
		}
		nf := uint64(len(frontier))
		if nf > st.PeakFrontier {
			st.PeakFrontier = nf
		}
		if cfg.Direction != DirectionBottomUp {
			// Beamer's heuristics: go bottom-up when a growing frontier's edges
			// outnumber 1/α of the unexplored edges (pushes would mostly hit
			// settled vertices), return top-down when the frontier thins below
			// n/β (scanning all unvisited vertices would dwarf the pushes).
			// Multiplication form keeps the comparisons exact — integer mu/α
			// truncates to 0 on the last levels of long-diameter graphs and
			// would flip a one-vertex frontier bottom-up — and the growing
			// requirement keeps constant trickle frontiers (chains, grids)
			// top-down for good.
			was := useBU
			if useBU {
				useBU = nf*uint64(cfg.Beta) >= n
			} else {
				useBU = nf > prevNf && mf*uint64(cfg.Alpha) > mu
			}
			if useBU != was {
				st.DirectionSwitches++
			}
		}

		var width int
		if useBU {
			st.BottomUpPhases++
			width = phaseWorkers(cfg.Workers, mu+nf)
		} else {
			st.TopDownPhases++
			width = phaseWorkers(cfg.Workers, mf)
			if d.batch != nil {
				// On an I/O-backed store the phase is latency-bound, not
				// CPU-bound: fan out so the frontier's reads overlap, as the
				// asynchronous kernel's do across its oversubscribed workers.
				width = max(width, min((len(frontier)+ioFanout-1)/ioFanout, cfg.Workers))
			}
		}

		if useBU {
			d.markFrontier(frontier)
		}
		for len(workers) < width {
			workers = append(workers, &dirWorker[V]{scratch: &graph.Scratch[V]{}})
		}
		d.phase(workers[:width], frontier, useBU, curLevel)

		// Fold the phase: merge the per-worker next-frontiers into one
		// contiguous frontier, sized first from their summed lengths — grown by
		// append it is reallocated and copied a dozen times on its way to a
		// scale-free graph's peak — gather the counters, and reset worker
		// state for the next level.
		mf = 0
		total := 0
		for _, w := range workers[:width] {
			if w.err != nil {
				return nil, w.err
			}
			total += len(w.next)
		}
		if cap(frontier) < total {
			frontier = make([]V, 0, total)
		}
		frontier = frontier[:0]
		for _, w := range workers[:width] {
			frontier = append(frontier, w.next...)
			mf += w.mf
			st.Visits += w.visits
			st.Pushes += w.edges
			w.total += w.visits
			w.next = w.next[:0]
			w.mf, w.visits, w.edges = 0, 0, 0
		}
		mu -= mf
		prevNf = nf
		curLevel++
	}
	st.WorkerVisits = make([]uint64, len(workers))
	for i, w := range workers {
		st.WorkerVisits[i] = w.total
	}
	res.Stats = st
	return res, nil
}
