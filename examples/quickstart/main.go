// Quickstart: build a small graph, run the three asynchronous traversals
// (BFS, SSSP, CC), and print their results. This is the five-minute tour of
// the library's public API.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
)

func main() {
	// A small weighted road network: 8 intersections, two clusters joined by
	// one bridge, plus an unreachable island (vertices 6, 7).
	b := graph.NewBuilder[uint32](8, true)
	type edge struct {
		u, v uint32
		w    graph.Weight
	}
	edges := []edge{
		{0, 1, 4}, {0, 2, 1}, {2, 1, 2}, {1, 3, 5},
		{2, 3, 8}, {3, 4, 3}, {4, 5, 1}, {3, 5, 10},
		{6, 7, 2}, // island
	}
	for _, e := range edges {
		b.AddEdge(e.u, e.v, e.w)
	}
	// Make it undirected. A graph built this way knows it is its own
	// transpose, which lets BFS switch direction on it.
	b.Symmetrize()
	g, err := b.Build(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d directed edges\n\n", g.NumVertices(), g.NumEdges())

	// Breadth First Search: hop counts from vertex 0. Config{} picks sensible
	// defaults (4x GOMAXPROCS workers) and lets BFS choose its driver: level
	// phases that switch direction on this undirected graph, the asynchronous
	// engine's per-worker prioritized queues on a directed one.
	bfs, err := core.BFS[uint32](g, 0, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BFS from 0 (hops):")
	for v, l := range bfs.Level {
		if bfs.Reached(uint32(v)) {
			fmt.Printf("  vertex %d: level %d, parent %d\n", v, l, bfs.Parent[v])
		} else {
			fmt.Printf("  vertex %d: unreachable\n", v)
		}
	}
	fmt.Printf("  levels=%d visited=%.0f%%\n\n", bfs.NumLevels(), 100*bfs.FracVisited())

	// Single Source Shortest Path: weighted distances from vertex 0. The
	// traversal is label-correcting — vertices may be visited more than once
	// as shorter paths arrive, with no global synchronization.
	sssp, err := core.SSSP[uint32](g, 0, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SSSP from 0 (weighted):")
	for v, d := range sssp.Dist {
		if sssp.Reached(uint32(v)) {
			fmt.Printf("  vertex %d: dist %d via %d\n", v, d, sssp.Parent[v])
		} else {
			fmt.Printf("  vertex %d: unreachable\n", v)
		}
	}
	fmt.Printf("  engine stats: %s\n\n", sssp.Stats)

	// Connected Components: every vertex is labeled with the smallest vertex
	// id it can reach. The island gets its own label.
	cc, err := core.CC[uint32](g, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Connected components:")
	for label, size := range cc.Sizes() {
		fmt.Printf("  component %d: %d vertices\n", label, size)
	}
	fmt.Printf("  total: %d components\n", cc.NumComponents())
}
