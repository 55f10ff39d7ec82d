package graph

// CompressedCSR is the delta + varint compressed counterpart of CSR: the
// edge array is replaced by a flat blob of per-vertex encoded blocks (see
// codec.go) plus a byte-offset index and a degree array. The index and
// degrees are the RAM-resident "algorithmic information about the vertices";
// the blob is what shrinks — typically 2-4x on RMAT/web-like graphs, which
// is a matching cut in IM footprint and, through the sem v2 format, in
// device bytes per traversed edge.

import (
	"fmt"
	"sort"
)

// CompressedCSR is an immutable compressed sparse row graph with
// delta+varint encoded adjacency blocks. It implements Adjacency; Neighbors
// decodes into the caller's scratch, so traversal over a compressed graph
// allocates nothing per edge.
type CompressedCSR[V Vertex] struct {
	offsets   []uint64 // n+1 byte offsets into blob; block of v is blob[offsets[v]:offsets[v+1]]
	degrees   []uint32 // out-degree of each vertex (block length alone cannot recover it)
	blob      []byte   // concatenated encoded blocks
	weighted  bool
	m         uint64
	symmetric bool // the source CSR's mark (see CSR.Symmetric)
}

// Compress encodes g. Vertices whose adjacency lists are not already sorted
// ascending (Builder output always is) are sorted on a scratch copy, weights
// kept parallel, so compressed adjacency order is ascending by target.
func Compress[V Vertex](g *CSR[V]) (*CompressedCSR[V], error) {
	n := g.NumVertices()
	c := &CompressedCSR[V]{
		offsets:   make([]uint64, n+1),
		degrees:   make([]uint32, n),
		weighted:  g.Weighted(),
		m:         g.NumEdges(),
		symmetric: g.symmetric,
	}
	// Pre-size the blob at one byte per edge — the dense-gap floor; growth
	// beyond it is a single amortized append chain.
	c.blob = make([]byte, 0, g.NumEdges())
	var sortT []V
	var sortW []Weight
	for v := uint64(0); v < n; v++ {
		targets, weights, _ := g.Neighbors(V(v), nil)
		if uint64(len(targets)) > uint64(^uint32(0)) {
			return nil, fmt.Errorf("graph: degree of %d (%d) overflows the compressed degree index", v, len(targets))
		}
		c.degrees[v] = uint32(len(targets))
		if !sortedAscending(targets) {
			sortT = append(sortT[:0], targets...)
			targets = sortT
			if weights != nil {
				sortW = append(sortW[:0], weights...)
				weights = sortW
				sort.Sort(&pairSort[V]{t: sortT, w: sortW})
			} else {
				sort.Slice(sortT, func(i, j int) bool { return sortT[i] < sortT[j] })
			}
		}
		var err error
		c.blob, err = AppendAdjBlock(c.blob, V(v), targets, weights)
		if err != nil {
			return nil, fmt.Errorf("graph: compress vertex %d: %w", v, err)
		}
		c.offsets[v+1] = uint64(len(c.blob))
	}
	return c, nil
}

func sortedAscending[V Vertex](ts []V) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return false
		}
	}
	return true
}

// pairSort sorts a target slice ascending, carrying weights along.
type pairSort[V Vertex] struct {
	t []V
	w []Weight
}

func (p *pairSort[V]) Len() int { return len(p.t) }
func (p *pairSort[V]) Less(i, j int) bool {
	if p.t[i] != p.t[j] {
		return p.t[i] < p.t[j]
	}
	return p.w[i] < p.w[j]
}
func (p *pairSort[V]) Swap(i, j int) {
	p.t[i], p.t[j] = p.t[j], p.t[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// NumVertices implements Adjacency.
func (c *CompressedCSR[V]) NumVertices() uint64 {
	if len(c.offsets) == 0 {
		return 0
	}
	return uint64(len(c.offsets) - 1)
}

// NumEdges reports the number of encoded directed edges.
func (c *CompressedCSR[V]) NumEdges() uint64 { return c.m }

// Weighted reports whether blocks carry a weight stream.
func (c *CompressedCSR[V]) Weighted() bool { return c.weighted }

// CompressedBytes reports the size of the encoded edge blob — the compressed
// counterpart of m x record bytes.
func (c *CompressedCSR[V]) CompressedBytes() int64 { return int64(len(c.blob)) }

// Degree implements Adjacency from the RAM-resident degree array; no decode.
func (c *CompressedCSR[V]) Degree(v V) int { return int(c.degrees[v]) }

// BlockOffsets exposes the n+1 byte-offset index into the blob. Storage back
// ends serialize it; callers must not mutate it.
func (c *CompressedCSR[V]) BlockOffsets() []uint64 { return c.offsets }

// Degrees exposes the per-vertex degree array. Callers must not mutate it.
func (c *CompressedCSR[V]) Degrees() []uint32 { return c.degrees }

// Blob exposes the concatenated encoded blocks. Callers must not mutate it.
func (c *CompressedCSR[V]) Blob() []byte { return c.blob }

// Block returns the encoded adjacency block of v (zero-length for isolated
// vertices).
func (c *CompressedCSR[V]) Block(v V) []byte {
	return c.blob[c.offsets[v]:c.offsets[v+1]]
}

// Neighbors implements Adjacency by decoding v's block into scratch; the
// returned slices are valid until the next call with the same scratch. A nil
// scratch allocates fresh slices — fine for serial baselines and tools, never
// done by the engine's workers.
//
//lint:hotpath
func (c *CompressedCSR[V]) Neighbors(v V, scratch *Scratch[V]) ([]V, []Weight, error) {
	deg := int(c.degrees[v])
	if deg == 0 {
		return nil, nil, nil
	}
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	if cap(scratch.Targets) < deg {
		scratch.Targets = make([]V, deg)
	}
	targets := scratch.Targets[:deg]
	var weights []Weight
	if c.weighted {
		if cap(scratch.Weights) < deg {
			scratch.Weights = make([]Weight, deg)
		}
		weights = scratch.Weights[:deg]
	}
	if _, err := DecodeAdjBlock(c.Block(v), v, targets, weights); err != nil {
		return nil, nil, err
	}
	return targets, weights, nil
}

// Symmetric, HasInEdges, InDegree and InNeighbors mirror CSR's: a compressed
// symmetric graph decodes v's own block to answer "who points at v?".
func (c *CompressedCSR[V]) Symmetric() bool  { return c.symmetric }
func (c *CompressedCSR[V]) HasInEdges() bool { return c.symmetric }
func (c *CompressedCSR[V]) InDegree(v V) int { return c.Degree(v) }
func (c *CompressedCSR[V]) InNeighbors(v V, scratch *Scratch[V]) ([]V, error) {
	in, _, err := c.Neighbors(v, scratch)
	return in, err
}

// CompressedCSR is a full Adjacency back end, and a reverse one when marked.
var _ InAdjacency[uint32] = (*CompressedCSR[uint32])(nil)
