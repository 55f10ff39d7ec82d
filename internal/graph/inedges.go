package graph

// This file is the reverse-adjacency capability: the interfaces the
// direction-optimizing BFS kernel (internal/core) traverses in-edges through,
// and the in-memory pairing of a forward graph with its transpose. The
// bottom-up relaxation step inverts the paper's push model — instead of a
// frontier vertex pushing its label to out-neighbors, an unvisited vertex
// scans its in-edges for a settled parent — which requires every back end
// that wants the optimization to answer "who points at v?".
//
// Capability follows the data, three ways:
//
//   - a symmetric graph is its own transpose: a CSR (raw or compressed) that
//     left a Builder through Symmetrize, or was loaded from a file whose
//     header says so, carries a mark and serves in-edges from its own lists,
//     with no wrapper and no extra storage (CSR.Symmetric);
//   - a directed in-memory CSR pairs with its Transpose in a Bidi wrapper
//     (what an in-memory mount does for a file with an in-edge section);
//   - the semi-external store carries an on-flash in-edge section (or the
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
// support depends on the data (a CSR without the symmetric mark, a sem store
// without an in-edge section, a shard router with incapable members)
// implement HasInEdges to decline at runtime.
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

// InEdgeSource names where g's reverse adjacency comes from, for the lines
// that say which BFS ran and why: "symmetric" (the graph is its own
// transpose: a marked CSR, a flagged file), "section" (a stored transpose: an
// on-flash in-edge section, or its in-memory Bidi pairing), or "none".
func InEdgeSource[V Vertex](g Adjacency[V]) string {
	if _, ok := InEdges(g); !ok {
		return "none"
	}
	if s, ok := g.(interface{ Symmetric() bool }); ok && s.Symmetric() {
		return "symmetric"
	}
	return "section"
}

// Bidi pairs an in-memory graph with its reverse, making a directed graph
// direction-capable: NewBidi(g, Transpose(g)). Forward reads are the embedded
// graph's own; in-edge reads delegate to rev's forward adjacency, through the
// caller's scratch (a list is valid until the next call with it, whichever
// side that call reads).
type Bidi[V Vertex] struct {
	InMemory[V]
	rev Adjacency[V]
}

// InMemory is what Bidi needs of its forward side beyond Adjacency, and what
// both in-memory back ends (CSR, CompressedCSR) provide.
type InMemory[V Vertex] interface {
	Adjacency[V]
	NumEdges() uint64
	Weighted() bool
}

// NewBidi builds the pairing. rev must be the transpose of fwd; only the
// vertex counts are validated here.
func NewBidi[V Vertex](fwd InMemory[V], rev Adjacency[V]) (*Bidi[V], error) {
	if fwd == nil || rev == nil {
		return nil, fmt.Errorf("graph: bidi needs both a forward and a reverse adjacency")
	}
	if fn, rn := fwd.NumVertices(), rev.NumVertices(); fn != rn {
		return nil, fmt.Errorf("graph: bidi forward has %d vertices, reverse has %d", fn, rn)
	}
	return &Bidi[V]{InMemory: fwd, rev: rev}, nil
}

// InDegree implements InAdjacency.
//
//lint:hotpath
func (b *Bidi[V]) InDegree(v V) int { return b.rev.Degree(v) }

// InNeighbors implements InAdjacency from the reverse side's forward lists.
//
//lint:hotpath
func (b *Bidi[V]) InNeighbors(v V, scratch *Scratch[V]) ([]V, error) {
	targets, _, err := b.rev.Neighbors(v, scratch)
	return targets, err
}

var (
	_ InAdjacency[uint32] = (*Bidi[uint32])(nil)
	_ InAdjacency[uint32] = (*CSR[uint32])(nil)
)
