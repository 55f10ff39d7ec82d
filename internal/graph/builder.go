package graph

import (
	"fmt"
	"sort"
)

// Edge is a single directed edge used during graph construction.
type Edge[V Vertex] struct {
	Src, Dst V
	W        Weight
}

// Builder accumulates edges and produces an immutable CSR. Construction
// follows the paper's preprocessing: edges are sorted by (src, dst), optional
// de-duplication keeps unique edges ("graphs with unique edges"), and
// undirected graphs are produced by adding reverse edges.
type Builder[V Vertex] struct {
	n        uint64
	weighted bool
	edges    []Edge[V]
	// symmetrized holds from Symmetrize until an edge is added: Build then
	// marks the CSR as its own transpose.
	symmetrized bool
	built       bool // a Build succeeded: the builder is single-shot
}

// NewBuilder creates a builder for a graph with n vertices. If weighted is
// false, edge weights are ignored and the CSR stores no weight array.
func NewBuilder[V Vertex](n uint64, weighted bool) *Builder[V] {
	return &Builder[V]{n: n, weighted: weighted}
}

// AddEdge appends a directed edge u->v with weight w.
func (b *Builder[V]) AddEdge(u, v V, w Weight) {
	b.unbuilt()
	b.edges = append(b.edges, Edge[V]{Src: u, Dst: v, W: w})
	b.symmetrized = false
}

// AddEdges appends a batch of directed edges.
func (b *Builder[V]) AddEdges(edges []Edge[V]) {
	b.unbuilt()
	b.edges = append(b.edges, edges...)
	b.symmetrized = false
}

// unbuilt panics once Build has run: an edge added now would be in no graph.
func (b *Builder[V]) unbuilt() {
	if b.built {
		panic("graph: Builder used after Build")
	}
}

// Symmetrize adds the reverse of every edge currently in the builder,
// converting a directed edge list into an undirected one. This is the paper's
// "undirected versions of these graphs ... created by adding reverse edges".
// A Build that follows with no edge added in between yields a CSR marked
// symmetric (see CSR.Symmetric): it serves its own reverse adjacency.
func (b *Builder[V]) Symmetrize() {
	b.unbuilt()
	orig := len(b.edges)
	for i := 0; i < orig; i++ {
		e := b.edges[i]
		if e.Src != e.Dst {
			b.edges = append(b.edges, Edge[V]{Src: e.Dst, Dst: e.Src, W: e.W})
		}
	}
	b.symmetrized = true
}

// Build sorts the accumulated edges, removes duplicate (src, dst) pairs when
// dedup is set (keeping the smallest weight, so de-duplication never lengthens
// a shortest path), and assembles the CSR. Build validates endpoints and
// returns an error for out-of-range vertices rather than producing a
// corrupted graph. A builder builds once: a second Build is an error, and an
// edge added or a Symmetrize after Build panics.
func (b *Builder[V]) Build(dedup bool) (*CSR[V], error) {
	if b.built {
		return nil, fmt.Errorf("graph: Builder already built")
	}
	for _, e := range b.edges {
		if uint64(e.Src) >= b.n || uint64(e.Dst) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.Src, e.Dst, b.n)
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		a, c := b.edges[i], b.edges[j]
		if a.Src != c.Src {
			return a.Src < c.Src
		}
		if a.Dst != c.Dst {
			return a.Dst < c.Dst
		}
		return a.W < c.W
	})
	edges := b.edges
	if dedup {
		edges = edges[:0]
		for _, e := range b.edges {
			if k := len(edges); k > 0 && edges[k-1].Src == e.Src && edges[k-1].Dst == e.Dst {
				continue // sorted by weight within (src,dst): first kept is the minimum
			}
			edges = append(edges, e)
		}
	}

	g := &CSR[V]{
		offsets:   make([]uint64, b.n+1),
		targets:   make([]V, len(edges)),
		symmetric: b.symmetrized,
	}
	if b.weighted {
		g.weights = make([]Weight, len(edges))
	}
	for _, e := range edges {
		g.offsets[e.Src+1]++
	}
	for i := uint64(0); i < b.n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	// Edges are sorted by src, so a single pass lays them out in place.
	for i, e := range edges {
		g.targets[i] = e.Dst
		if b.weighted {
			g.weights[i] = e.W
		}
	}
	b.edges, b.built = nil, true // release memory
	return g, nil
}

// FromEdges is a convenience wrapper: build a CSR directly from an edge list.
func FromEdges[V Vertex](n uint64, weighted, dedup bool, edges []Edge[V]) (*CSR[V], error) {
	b := NewBuilder[V](n, weighted)
	b.AddEdges(edges)
	return b.Build(dedup)
}

// NewCSRRaw assembles a CSR from already-validated component arrays. offsets
// must have length n+1 and be non-decreasing with offsets[n] == len(targets);
// weights must be nil or parallel to targets. Used by the semi-external
// loader and by tests.
func NewCSRRaw[V Vertex](offsets []uint64, targets []V, weights []Weight) (*CSR[V], error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: offsets must have length >= 1")
	}
	if offsets[0] != 0 || offsets[len(offsets)-1] != uint64(len(targets)) {
		return nil, fmt.Errorf("graph: offsets do not span targets (first=%d last=%d m=%d)",
			offsets[0], offsets[len(offsets)-1], len(targets))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets decrease at %d", i)
		}
	}
	if weights != nil && len(weights) != len(targets) {
		return nil, fmt.Errorf("graph: weights length %d != targets length %d", len(weights), len(targets))
	}
	return &CSR[V]{offsets: offsets, targets: targets, weights: weights}, nil
}

// NewLoadedCSR is NewCSRRaw for a loader: symmetric marks the graph on the
// word of a file header, as trusted as the rest of a format without checksums.
func NewLoadedCSR[V Vertex](symmetric bool, offsets []uint64, targets []V, weights []Weight) (*CSR[V], error) {
	g, err := NewCSRRaw(offsets, targets, weights)
	if err == nil {
		g.symmetric = symmetric
	}
	return g, err
}
