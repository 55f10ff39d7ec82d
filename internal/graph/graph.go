// Package graph provides the in-memory graph substrate for the traversal
// engine: a compressed sparse row (CSR) representation generic over 32- or
// 64-bit vertex identifiers, plus the Adjacency interface shared by the
// in-memory and semi-external storage back ends.
//
// The CSR layout mirrors the storage the paper uses for both its In-Memory
// (Boost CSR) and Semi-External (file-backed CSR) implementations: a vertex
// index array of n+1 offsets and a flat edge array, with an optional parallel
// weight array for weighted graphs.
package graph

import "fmt"

// Vertex constrains the vertex identifier type. The paper notes its
// implementation "can be configured to use 32 or 64-bit integers"; the same
// configurability is expressed here with a type parameter.
type Vertex interface {
	~uint32 | ~uint64
}

// Weight is the edge weight type. The paper's SSSP experiments use integer
// weights drawn from [0, |V|) (UW) or log-uniform ranges (LUW); uint32 covers
// both at the scales exercised here while keeping edge records compact.
type Weight = uint32

// Dist is the path-length type: wide enough that summing uint32 weights along
// any simple path cannot overflow.
type Dist = uint64

// InfDist marks an unreached vertex, the paper's "initialized to infinity".
const InfDist Dist = ^Dist(0)

// NoVertex returns the sentinel "no parent / unlabeled" identifier for V,
// the maximum representable value.
func NoVertex[V Vertex]() V {
	return ^V(0)
}

// Scratch holds per-worker reusable buffers for adjacency reads. The
// in-memory back end ignores it; the semi-external back end decodes edge
// blocks into it so that steady-state traversal performs no allocation.
type Scratch[V Vertex] struct {
	Targets []V
	Weights []Weight
	Block   []byte
	// Window is the engine's buffer for one pop window's NeighborsBatch argument.
	Window []V
	// Prefetch is an opaque per-worker prefetch session owned by storage
	// back ends that implement BatchAdjacency. The engine only carries it
	// alongside the worker's other scratch state; the back end allocates and
	// interprets it. Nil until the back end's first NeighborsBatch call.
	Prefetch any
}

// Adjacency is the read interface the traversal engine works against. Both
// the in-memory CSR and the semi-external store implement it.
type Adjacency[V Vertex] interface {
	// NumVertices reports the number of vertices; valid ids are [0, n).
	NumVertices() uint64
	// Degree reports the out-degree of v.
	Degree(v V) int
	// Neighbors returns the adjacency list of v and, for weighted graphs, a
	// parallel weight slice (nil for unweighted graphs). The returned slices
	// are valid only until the next Neighbors call with the same scratch.
	Neighbors(v V, scratch *Scratch[V]) (targets []V, weights []Weight, err error)
}

// BatchAdjacency is implemented by storage back ends that can service a
// window of upcoming adjacency reads asynchronously. NeighborsBatch announces
// the vertices the calling worker will visit next; the back end may begin I/O
// immediately and hand each completed read to the subsequent Neighbors call
// for that vertex on the same scratch, without copying. Reads still
// unconsumed when the next NeighborsBatch arrives on the scratch are
// abandoned. In-memory back ends, for which adjacency access is free, have no
// reason to implement this.
type BatchAdjacency[V Vertex] interface {
	Adjacency[V]
	NeighborsBatch(vs []V, scratch *Scratch[V])
}

// Settler is implemented by storage back ends that want traversal-state
// notifications from the engine: VertexQueued fires when a visitor for v
// enters the engine (push), VertexSettled when that visitor leaves it
// (visited, dropped stale, or drained after an abort). The semi-external back
// end feeds these into its block cache's replacement order — a block whose
// vertices all settled is evicted early, one with queued work is pinned.
// Calls arrive concurrently from every worker; implementations must be atomic
// and cheap. The engine guarantees queued/settled arrive pairwise per visitor
// by the time Wait returns, on completed and aborted traversals alike.
type Settler interface {
	VertexQueued(v uint64)
	VertexSettled(v uint64)
}

// SettleProvider is the discovery side of Settler: back ends expose it
// unconditionally and return a nil sink when nothing consumes the feed, so
// the engine wires the per-push notification calls only on mounts that will
// actually use them — an in-memory or raw-device mount pays nothing.
type SettleProvider interface {
	SettleSink() Settler
}

// CSR is an immutable in-memory compressed sparse row graph.
type CSR[V Vertex] struct {
	offsets []uint64 // len n+1; edge span of v is [offsets[v], offsets[v+1])
	targets []V
	weights []Weight // nil for unweighted graphs
	// symmetric marks a graph that is its own transpose and so serves its own
	// in-edges (InAdjacency below). Only construction sets it: Build straight
	// after Symmetrize, a copy that keeps the structure (WithWeights,
	// Compress), a loader whose file header says so (NewLoadedCSR).
	symmetric bool
}

// NumVertices reports the number of vertices in the graph.
func (g *CSR[V]) NumVertices() uint64 {
	if len(g.offsets) == 0 {
		return 0
	}
	return uint64(len(g.offsets) - 1)
}

// NumEdges reports the number of directed edges stored.
func (g *CSR[V]) NumEdges() uint64 { return uint64(len(g.targets)) }

// Weighted reports whether the graph carries edge weights.
func (g *CSR[V]) Weighted() bool { return g.weights != nil }

// Degree reports the out-degree of v.
func (g *CSR[V]) Degree(v V) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors implements Adjacency. The in-memory back end returns slices that
// alias the CSR arrays; scratch is unused and may be nil.
func (g *CSR[V]) Neighbors(v V, _ *Scratch[V]) ([]V, []Weight, error) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.weights == nil {
		return g.targets[lo:hi], nil, nil
	}
	return g.targets[lo:hi], g.weights[lo:hi], nil
}

// Symmetric reports the mark: every edge is stored in both directions.
func (g *CSR[V]) Symmetric() bool { return g.symmetric }

// HasInEdges gates the InAdjacency capability on the mark (see InEdges).
func (g *CSR[V]) HasInEdges() bool { return g.symmetric }

// InDegree implements InAdjacency for a symmetric graph.
func (g *CSR[V]) InDegree(v V) int { return g.Degree(v) }

// InNeighbors implements InAdjacency for a symmetric graph: v's out-list.
func (g *CSR[V]) InNeighbors(v V, _ *Scratch[V]) ([]V, error) {
	return g.targets[g.offsets[v]:g.offsets[v+1]], nil
}

// WithWeights returns g's structure under a new weight array (nil for none),
// sharing the immutable index and targets and keeping the symmetric mark.
func (g *CSR[V]) WithWeights(weights []Weight) (*CSR[V], error) {
	if weights != nil && len(weights) != len(g.targets) {
		return nil, fmt.Errorf("graph: weights length %d != targets length %d", len(weights), len(g.targets))
	}
	return &CSR[V]{offsets: g.offsets, targets: g.targets, weights: weights, symmetric: g.symmetric}, nil
}

// Offsets exposes the vertex index array (length n+1). Intended for storage
// back ends and tests; callers must not mutate it.
func (g *CSR[V]) Offsets() []uint64 { return g.offsets }

// Targets exposes the flat edge-target array. Callers must not mutate it.
func (g *CSR[V]) Targets() []V { return g.targets }

// WeightsRaw exposes the flat weight array (nil if unweighted). Callers must
// not mutate it.
func (g *CSR[V]) WeightsRaw() []Weight { return g.weights }

// ForEachEdge invokes fn for every directed edge (u, v, w). Unweighted graphs
// report weight 1.
func (g *CSR[V]) ForEachEdge(fn func(u, v V, w Weight)) {
	n := g.NumVertices()
	for u := uint64(0); u < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			w := Weight(1)
			if g.weights != nil {
				w = g.weights[i]
			}
			fn(V(u), g.targets[i], w)
		}
	}
}
