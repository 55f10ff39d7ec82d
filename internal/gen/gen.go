// Package gen produces the synthetic workloads of the paper's evaluation
// (§V-A): RMAT scale-free graphs with the RMAT-A and RMAT-B parameter sets,
// uniform (UW) and log-uniform (LUW) edge weights, the poor-parallelism chain
// of Figure 2, and web-like graphs standing in for the paper's real web
// traces (ClueWeb09, it-2004, sk-2005, uk-union, webbase-2001), which are not
// redistributable here.
package gen

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/graph"
)

// RMATParams are the recursive-matrix quadrant probabilities (a+b+c+d = 1).
type RMATParams struct {
	A, B, C, D float64
}

// RMATA is the paper's moderate-skew parameter set:
// a=0.45, b=0.15, c=0.15, d=0.25.
var RMATA = RMATParams{A: 0.45, B: 0.15, C: 0.15, D: 0.25}

// RMATB is the paper's heavy-skew parameter set:
// a=0.57, b=0.19, c=0.19, d=0.05.
var RMATB = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
}

// RMATEdges generates m directed edges over 2^scale vertices using the
// recursive-matrix model of Chakrabarti et al., the generator the paper uses
// for all synthetic inputs. Vertex ids are scrambled with a random
// permutation-like hash so that degree does not correlate with id, matching
// standard RMAT practice. Duplicate edges may be produced; the caller
// de-duplicates at build time ("graphs with unique edges").
func RMATEdges[V graph.Vertex](scale int, m uint64, p RMATParams, seed uint64) []graph.Edge[V] {
	r := rng(seed)
	n := uint64(1) << scale
	mask := n - 1
	edges := make([]graph.Edge[V], 0, m)
	// The id scramble must be a bijection on [0, n) so every vertex keeps a
	// distinct identity: an affine step and a multiply (both odd-multiplier,
	// bijective mod 2^scale) around a xorshift (bijective for shift > 0).
	scrambleA := r.Uint64() | 1
	scrambleB := r.Uint64()
	scrambleC := r.Uint64() | 1
	shift := scale / 2
	if shift == 0 {
		shift = 1
	}
	scramble := func(v uint64) uint64 {
		v = (v*scrambleA + scrambleB) & mask
		v ^= v >> shift
		return (v * scrambleC) & mask
	}
	ab := p.A + p.B
	abNorm := p.A / (p.A + p.B) // P(stay left | top half)
	cNorm := p.C / (p.C + p.D)  // P(stay left | bottom half)
	for i := uint64(0); i < m; i++ {
		var src, dst uint64
		for d := 0; d < scale; d++ {
			src <<= 1
			dst <<= 1
			// Choose a quadrant; the standard noise-free recursion.
			if r.Float64() > ab { // bottom half: quadrants c or d
				src |= 1
				if r.Float64() > cNorm {
					dst |= 1
				}
			} else if r.Float64() > abNorm { // top-right quadrant b
				dst |= 1
			}
		}
		edges = append(edges, graph.Edge[V]{Src: V(scramble(src)), Dst: V(scramble(dst))})
	}
	return edges
}

// RMAT builds a directed CSR with 2^scale vertices and avgDegree*2^scale
// generated edges (unique after de-duplication, as in the paper, which
// generates "directed graphs with unique edges ... and an average out-degree
// of 16").
func RMAT[V graph.Vertex](scale, avgDegree int, p RMATParams, seed uint64) (*graph.CSR[V], error) {
	n := uint64(1) << scale
	edges := RMATEdges[V](scale, n*uint64(avgDegree), p, seed)
	return graph.FromEdges[V](n, false, true, edges)
}

// RMATUndirected builds the undirected (symmetrized) version used by the CC
// experiments.
func RMATUndirected[V graph.Vertex](scale, avgDegree int, p RMATParams, seed uint64) (*graph.CSR[V], error) {
	n := uint64(1) << scale
	b := graph.NewBuilder[V](n, false)
	b.AddEdges(RMATEdges[V](scale, n*uint64(avgDegree), p, seed))
	b.Symmetrize()
	return b.Build(true)
}

// UniformWeights assigns each edge a weight drawn uniformly from
// [0, numVertices), the paper's UW scheme. The CSR must have been built
// weighted; this regenerates it with weights attached.
func UniformWeights[V graph.Vertex](g *graph.CSR[V], seed uint64) (*graph.CSR[V], error) {
	r := rng(seed)
	n := g.NumVertices()
	return reweight(g, func() graph.Weight {
		return graph.Weight(r.Uint64N(n))
	})
}

// LogUniformWeights assigns each edge a weight from [0, 2^i) where i is
// uniform in [0, lg(numVertices)), the paper's LUW scheme: most weights are
// small, a few span the full range.
func LogUniformWeights[V graph.Vertex](g *graph.CSR[V], seed uint64) (*graph.CSR[V], error) {
	r := rng(seed)
	lg := bits.Len64(g.NumVertices()) - 1
	if lg < 1 {
		lg = 1
	}
	return reweight(g, func() graph.Weight {
		i := r.IntN(lg)
		return graph.Weight(r.Uint64N(uint64(1) << i))
	})
}

// reweight keeps g's structure, and with it the symmetric mark of an
// undirected build.
func reweight[V graph.Vertex](g *graph.CSR[V], next func() graph.Weight) (*graph.CSR[V], error) {
	weights := make([]graph.Weight, g.NumEdges())
	for i := range weights {
		weights[i] = next()
	}
	return g.WithWeights(weights)
}

// Chain builds the paper's Figure 2 worst case: a directed path
// 0 -> 1 -> ... -> n-1 with no independent pathways, which serializes the
// asynchronous traversal.
func Chain[V graph.Vertex](n uint64) (*graph.CSR[V], error) {
	b := graph.NewBuilder[V](n, false)
	for i := uint64(0); i+1 < n; i++ {
		b.AddEdge(V(i), V(i+1), 1)
	}
	return b.Build(false)
}

// ErdosRenyi builds a directed G(n, m) random graph: m edges with uniformly
// random endpoints. Used as a low-skew control workload.
func ErdosRenyi[V graph.Vertex](n, m uint64, seed uint64) (*graph.CSR[V], error) {
	r := rng(seed)
	edges := make([]graph.Edge[V], 0, m)
	for i := uint64(0); i < m; i++ {
		edges = append(edges, graph.Edge[V]{Src: V(r.Uint64N(n)), Dst: V(r.Uint64N(n))})
	}
	return graph.FromEdges[V](n, false, true, edges)
}

// WebGraph builds an undirected web-like graph standing in for the paper's
// real web traces: preferential attachment (power-law degrees, giant
// component) plus random "community" edges within small id neighborhoods
// (link locality, as in crawled host-ordered traces). attach is the number
// of preferential links per new vertex and community the number of local
// links.
func WebGraph[V graph.Vertex](n uint64, attach, community int, seed uint64) (*graph.CSR[V], error) {
	r := rng(seed)
	b := graph.NewBuilder[V](n, false)
	// endpoints records one endpoint per edge; sampling from it implements
	// preferential attachment (probability proportional to degree).
	endpoints := make([]V, 0, n*uint64(attach))
	endpoints = append(endpoints, 0)
	for v := uint64(1); v < n; v++ {
		for a := 0; a < attach; a++ {
			t := endpoints[r.IntN(len(endpoints))]
			b.AddEdge(V(v), t, 1)
			endpoints = append(endpoints, V(v), t)
		}
		for c := 0; c < community; c++ {
			span := uint64(1024)
			if v < span {
				span = v
			}
			t := v - 1 - r.Uint64N(span)
			b.AddEdge(V(v), V(t), 1)
		}
	}
	b.Symmetrize()
	return b.Build(true)
}

// Grid builds a rows x cols directed lattice: each cell links right and
// down. Grids have Θ(rows+cols) diameter with bounded path parallelism
// (min(rows, cols) independent frontier cells) — the intermediate case
// between the serialized chain of Figure 2 and a scale-free graph.
func Grid[V graph.Vertex](rows, cols uint64) (*graph.CSR[V], error) {
	n := rows * cols
	b := graph.NewBuilder[V](n, false)
	for r := uint64(0); r < rows; r++ {
		for c := uint64(0); c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(V(v), V(v+1), 1)
			}
			if r+1 < rows {
				b.AddEdge(V(v), V(v+cols), 1)
			}
		}
	}
	return b.Build(false)
}
