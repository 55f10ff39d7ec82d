package graph

import "sort"

// Transpose returns the reverse graph: every edge (u, v, w) becomes
// (v, u, w). Useful for in-neighborhood traversals and for turning a crawl's
// out-links into in-link structure.
func Transpose[V Vertex](g *CSR[V]) (*CSR[V], error) {
	b := NewBuilder[V](g.NumVertices(), g.Weighted())
	g.ForEachEdge(func(u, v V, w Weight) {
		b.AddEdge(v, u, w)
	})
	return b.Build(false)
}

// MaxDegreeVertex returns the lowest-numbered vertex of the highest
// out-degree: the deterministic stand-in for the paper's "start in the giant
// component" that every tool and experiment uses as its default source.
func MaxDegreeVertex[V Vertex](g Adjacency[V]) V {
	var best V
	bestDeg := -1
	for v := uint64(0); v < g.NumVertices(); v++ {
		if d := g.Degree(V(v)); d > bestDeg {
			best, bestDeg = V(v), d
		}
	}
	return best
}

// DegreeStats summarizes an out-degree distribution, the property that
// drives the paper's load-balance discussion (§I-B: hub vertices).
type DegreeStats struct {
	Min, Max int
	Mean     float64
	Median   int
	P99      int
	Isolated uint64  // vertices with out-degree 0
	HubFrac  float64 // fraction of edges incident to the top 1% of vertices
	NumVerts uint64
	NumEdges uint64
}

// DegreesOf computes the out-degree distribution summary of any adjacency
// back end from its RAM-resident degree information — no edge I/O. Mount
// paths use it to derive the direction controller's default thresholds from
// the graph actually mounted (see DirectionThresholds).
func DegreesOf[V Vertex](g Adjacency[V]) DegreeStats {
	n := g.NumVertices()
	var m uint64
	if ne, ok := g.(interface{ NumEdges() uint64 }); ok {
		m = ne.NumEdges()
	}
	st := DegreeStats{NumVerts: n, NumEdges: m}
	if n == 0 {
		return st
	}
	degs := make([]int, n)
	for v := uint64(0); v < n; v++ {
		degs[v] = g.Degree(V(v))
	}
	sort.Ints(degs)
	st.Min = degs[0]
	st.Max = degs[n-1]
	st.Median = degs[n/2]
	st.P99 = degs[n-1-(n-1)/100]
	total := 0
	for _, d := range degs {
		total += d
		if d == 0 {
			st.Isolated++
		}
	}
	st.Mean = float64(total) / float64(n)
	if st.NumEdges == 0 {
		st.NumEdges = uint64(total)
	}
	top := n / 100
	if top == 0 {
		top = 1
	}
	hubEdges := 0
	for _, d := range degs[n-top:] {
		hubEdges += d
	}
	if total > 0 {
		st.HubFrac = float64(hubEdges) / float64(total)
	}
	return st
}

// DirectionThresholds derives the hybrid direction controller's α/β switch
// thresholds from the degree distribution, replacing one-size-fits-all
// constants with the statistics of the mounted graph. The controller (see
// internal/core) goes bottom-up when the frontier's out-edge count exceeds
// 1/α of the unexplored edges and returns top-down when the frontier shrinks
// below n/β vertices.
//
// Rationale: on hub-heavy graphs (high mean degree, edges concentrated on
// the top 1%) the dense phases arrive early and bottom-up scans settle most
// vertices after touching few in-edges, so switching should trigger sooner —
// α grows with mean degree and hub concentration. Low-degree meshes and
// chains (mean near 1, no hubs) get the floor values, which in practice
// never trigger a switch — exactly right, since bottom-up scans would touch
// every unvisited vertex per phase for frontiers of a handful of vertices. β
// tracks 1.5x the mean degree, landing at the classic 24 for degree-16
// scale-free graphs.
func (st DegreeStats) DirectionThresholds() (alpha, beta int) {
	clamp := func(x float64, lo, hi int) int {
		v := int(x + 0.5)
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	alpha = clamp(st.Mean*(1+2*st.HubFrac), 4, 64)
	beta = clamp(st.Mean*1.5, 8, 96)
	return alpha, beta
}
