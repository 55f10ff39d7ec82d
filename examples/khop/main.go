// khop shows how to build a custom traversal on the visitor-queue engine
// directly — the same extension point the paper's vertex-visitor abstraction
// provides. The example computes a bounded-depth (k-hop) neighborhood: BFS
// that stops expanding at radius k, the primitive behind "friends of
// friends" queries and local community extraction.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pq"
)

// khop returns the vertices within k hops of src, using a custom visitor on
// the asynchronous engine. The visitor is Algorithm 2 with one extra line:
// neighbors are queued only while the frontier is inside the radius.
func khop(g graph.Adjacency[uint32], src uint32, k uint64, cfg core.Config) ([]graph.Dist, core.Stats, error) {
	n := g.NumVertices()
	level := make([]graph.Dist, n)
	for i := range level {
		level[i] = graph.InfDist
	}
	e := core.New[uint32](cfg, func(ctx *core.Ctx[uint32], it pq.Item) error {
		v := uint32(it.V)
		if it.Pri >= level[v] {
			return nil // stale visitor
		}
		level[v] = it.Pri
		if it.Pri == k {
			return nil // radius reached: do not expand further
		}
		targets, _, err := g.Neighbors(v, ctx.Scratch)
		if err != nil {
			return err
		}
		for _, t := range targets {
			ctx.Push(it.Pri+1, t, uint64(v))
		}
		return nil
	})
	e.Start()
	e.Push(0, src, uint64(src))
	st, err := e.Wait()
	return level, st, err
}

func main() {
	const scale = 14
	g, err := gen.RMAT[uint32](scale, 16, gen.RMATA, 5)
	if err != nil {
		log.Fatal(err)
	}
	src := graph.MaxDegreeVertex[uint32](g)
	fmt.Printf("graph: %d vertices, %d edges; source %d (degree %d)\n\n",
		g.NumVertices(), g.NumEdges(), src, g.Degree(src))

	fmt.Println("k-hop neighborhood sizes (custom visitor on the async engine):")
	prev := uint64(0)
	for k := uint64(0); k <= 5; k++ {
		level, st, err := khop(g, src, k, core.Config{Workers: 64})
		if err != nil {
			log.Fatal(err)
		}
		count := uint64(0)
		for _, l := range level {
			if l != graph.InfDist {
				count++
			}
		}
		fmt.Printf("  k=%d: %6d vertices reached (+%5d new), %d visitor executions\n",
			k, count, count-prev, st.Visits)
		prev = count
	}
	fmt.Println("\nthe small-diameter property (§I-B): a few hops reach most of the graph,")
	fmt.Println("and the early-exit visitor did proportionally less work at small k")
}
