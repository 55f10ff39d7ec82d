// social_sssp models the paper's social-network scenario (§I-A): vertices
// are people, weighted edges are interaction strengths (lower weight =
// stronger tie), and SSSP from a person ranks everyone by "relationship
// distance". The example compares the asynchronous label-correcting SSSP
// against serial Dijkstra for both answers and running time, under uniform
// and log-uniform weights (the paper's UW and LUW schemes).
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	const scale = 15
	fmt.Printf("generating RMAT-B social network at scale 2^%d (heavy-tailed degrees)...\n", scale)
	base, err := gen.RMAT[uint32](scale, 16, gen.RMATB, 11)
	if err != nil {
		log.Fatal(err)
	}

	for _, scheme := range []struct {
		name string
		fn   func(*graph.CSR[uint32], uint64) (*graph.CSR[uint32], error)
	}{
		{"UW (uniform weights)", gen.UniformWeights[uint32]},
		{"LUW (log-uniform weights)", gen.LogUniformWeights[uint32]},
	} {
		g, err := scheme.fn(base, 23)
		if err != nil {
			log.Fatal(err)
		}
		src := graph.MaxDegreeVertex[uint32](g)
		fmt.Printf("\n== %s, source = person %d (degree %d) ==\n", scheme.name, src, g.Degree(src))

		start := time.Now()
		res, err := core.SSSP[uint32](g, src, core.Config{Workers: 64})
		if err != nil {
			log.Fatal(err)
		}
		asyncTime := time.Since(start)

		start = time.Now()
		dist, _, err := baseline.SerialDijkstra[uint32](g, src)
		if err != nil {
			log.Fatal(err)
		}
		dijkstraTime := time.Since(start)

		for v := range dist {
			if res.Dist[v] != dist[v] {
				log.Fatalf("disagreement at %d: async=%d dijkstra=%d", v, res.Dist[v], dist[v])
			}
		}

		// Rank the closest people (excluding the source itself).
		type person struct {
			id   uint32
			dist graph.Dist
		}
		var reachable []person
		for v := range res.Dist {
			if uint32(v) != src && res.Reached(uint32(v)) {
				reachable = append(reachable, person{uint32(v), res.Dist[v]})
			}
		}
		sort.Slice(reachable, func(i, j int) bool { return reachable[i].dist < reachable[j].dist })

		fmt.Printf("async SSSP: %v (%s)\n", asyncTime.Round(time.Microsecond), res.Stats)
		fmt.Printf("Dijkstra:   %v — labels agree on all %d reachable people\n",
			dijkstraTime.Round(time.Microsecond), len(reachable))
		fmt.Println("closest ties:")
		for i, p := range reachable {
			if i == 5 {
				break
			}
			fmt.Printf("  person %d at distance %d\n", p.id, p.dist)
		}
		extra := float64(res.Stats.Visits) / float64(len(reachable)+1)
		fmt.Printf("label-correction overhead: %.2f visits per reached vertex\n", extra)
	}
}
