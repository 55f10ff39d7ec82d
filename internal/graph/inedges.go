package graph

// This file is the reverse-adjacency capability: the interfaces the
// direction-optimizing BFS kernel (internal/core) traverses in-edges through,
// and the in-memory pairing of a forward graph with its transpose. The
// bottom-up relaxation step inverts the paper's push model — instead of a
// frontier vertex pushing its label to out-neighbors, an unvisited vertex
// scans its in-edges for a settled parent — which requires every back end
// that wants the optimization to answer "who points at v?".
//
// Back ends expose the capability three ways:
//
//   - an in-memory CSR (raw or compressed) pairs with its Transpose (for a
//     compressed one, recompressed) in a Bidi wrapper;
//   - a symmetric graph is its own transpose: NewBidi(g, g) serves in-edges
//     from the out-adjacency with zero extra storage;
//   - the semi-external store carries an on-flash in-edge section (or a
//     symmetric header flag) and implements these interfaces natively, as
//     does the shard router when every member does.

import "fmt"

// InAdjacency is implemented by back ends that can serve reverse (in-edge)
// adjacency alongside the forward Adjacency. Weights are not part of the
// interface: the only consumer is the bottom-up BFS step, which needs
// sources, not costs.
type InAdjacency[V Vertex] interface {
	Adjacency[V]
	// InDegree reports the number of edges pointing at v.
	InDegree(v V) int
	// InNeighbors returns the sources of the edges pointing at v. The
	// returned slice is valid only until the next adjacency call with the
	// same scratch.
	InNeighbors(v V, scratch *Scratch[V]) ([]V, error)
}

// InScanner is the bulk counterpart of InAdjacency for bottom-up phases: the
// caller asks for the in-adjacency of a contiguous vertex-id range and the
// back end streams it in storage order. Semi-external stores implement this
// with large sequential degree-array spans — the whole point of a bottom-up
// SEM phase is replacing per-vertex random reads with near-sequential scans.
type InScanner[V Vertex] interface {
	InAdjacency[V]
	// ScanInEdges calls visit(v, in) for every vertex v in [lo, hi) with
	// need(v) true and a nonzero in-degree, in unspecified order, where in is
	// v's in-neighbor list (valid only during the call). need is consulted
	// before any I/O or decode is spent on v. A non-nil error from visit
	// aborts the scan.
	ScanInEdges(lo, hi V, need func(V) bool, visit func(v V, in []V) error, scratch *Scratch[V]) error
}

// InEdges reports whether g can serve reverse adjacency, resolving both the
// static interface and the dynamic capability: back ends whose in-edge
// support depends on the mounted data (a sem store without an in-edge
// section, a shard router with incapable members) implement HasInEdges to
// decline at runtime.
func InEdges[V Vertex](g Adjacency[V]) (InAdjacency[V], bool) {
	ia, ok := g.(InAdjacency[V])
	if !ok {
		return nil, false
	}
	if h, ok := g.(interface{ HasInEdges() bool }); ok && !h.HasInEdges() {
		return nil, false
	}
	return ia, true
}

// Bidi pairs a forward adjacency with its reverse, making any back end
// direction-capable in memory: NewBidi(g, Transpose(g)) for a directed CSR,
// NewBidi(g, g) for a symmetric one. Forward reads delegate to fwd
// (including pop-window batching when fwd supports it); in-edge reads
// delegate to rev's forward adjacency. The two sides keep isolated
// sub-scratches so a back end's per-worker decode state never crosses
// directions.
type Bidi[V Vertex] struct {
	fwd   Adjacency[V]
	rev   Adjacency[V]
	batch BatchAdjacency[V] // fwd's batching side, nil when absent
}

// NewBidi builds the pairing. rev must be the transpose of fwd (or fwd
// itself for symmetric graphs); only the vertex counts are validated here.
func NewBidi[V Vertex](fwd, rev Adjacency[V]) (*Bidi[V], error) {
	if fwd == nil || rev == nil {
		return nil, fmt.Errorf("graph: bidi needs both a forward and a reverse adjacency")
	}
	if fn, rn := fwd.NumVertices(), rev.NumVertices(); fn != rn {
		return nil, fmt.Errorf("graph: bidi forward has %d vertices, reverse has %d", fn, rn)
	}
	b := &Bidi[V]{fwd: fwd, rev: rev}
	b.batch, _ = fwd.(BatchAdjacency[V])
	return b, nil
}

// bidiScratch keeps each direction's decode state isolated per worker.
type bidiScratch[V Vertex] struct {
	out, in *Scratch[V]
}

func (b *Bidi[V]) state(scratch *Scratch[V]) *bidiScratch[V] {
	bs, ok := scratch.Prefetch.(*bidiScratch[V])
	if !ok {
		bs = &bidiScratch[V]{out: &Scratch[V]{}, in: &Scratch[V]{}}
		if b.rev == b.fwd {
			bs.in = bs.out // symmetric: one decode state serves both directions
		}
		scratch.Prefetch = bs
	}
	return bs
}

// NumVertices implements Adjacency.
func (b *Bidi[V]) NumVertices() uint64 { return b.fwd.NumVertices() }

// NumEdges reports the forward edge count when fwd exposes one.
func (b *Bidi[V]) NumEdges() uint64 {
	if ne, ok := b.fwd.(interface{ NumEdges() uint64 }); ok {
		return ne.NumEdges()
	}
	return 0
}

// Weighted reports whether the forward side carries edge weights.
func (b *Bidi[V]) Weighted() bool {
	if w, ok := b.fwd.(interface{ Weighted() bool }); ok {
		return w.Weighted()
	}
	return false
}

// Degree implements Adjacency.
//
//lint:hotpath
func (b *Bidi[V]) Degree(v V) int { return b.fwd.Degree(v) }

// Neighbors implements Adjacency, delegating to the forward side with its
// own sub-scratch.
//
//lint:hotpath
func (b *Bidi[V]) Neighbors(v V, scratch *Scratch[V]) ([]V, []Weight, error) {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	return b.fwd.Neighbors(v, b.state(scratch).out)
}

// NeighborsBatch implements BatchAdjacency when the forward side does;
// otherwise it is a no-op, matching the in-memory back ends.
func (b *Bidi[V]) NeighborsBatch(vs []V, scratch *Scratch[V]) {
	if b.batch == nil || scratch == nil {
		return
	}
	b.batch.NeighborsBatch(vs, b.state(scratch).out)
}

// InDegree implements InAdjacency.
//
//lint:hotpath
func (b *Bidi[V]) InDegree(v V) int { return b.rev.Degree(v) }

// InNeighbors implements InAdjacency from the reverse side's forward lists.
//
//lint:hotpath
func (b *Bidi[V]) InNeighbors(v V, scratch *Scratch[V]) ([]V, error) {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	targets, _, err := b.rev.Neighbors(v, b.state(scratch).in)
	return targets, err
}

var (
	_ InAdjacency[uint32]    = (*Bidi[uint32])(nil)
	_ BatchAdjacency[uint32] = (*Bidi[uint32])(nil)
)
