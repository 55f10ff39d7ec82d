// sem_bfs demonstrates the semi-external workflow end to end: generate an
// RMAT graph, serialize it to the on-device format, mount it on a simulated
// flash device, raw and then behind the block cache, and traverse it with
// vertex state in RAM and every adjacency access going to "flash". It shows
// the paper's SEM effect, multithreading hides device latency (§II-D), and
// what is left of the other, the semi-sorted visitor order (§IV-C), at 128
// queues.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mount"
	"repro/internal/ssd"
)

func main() {
	const scale = 13
	fmt.Printf("generating RMAT-A graph at scale 2^%d, degree 16...\n", scale)
	g, err := gen.RMAT[uint32](scale, 16, gen.RMATA, 42)
	if err != nil {
		log.Fatal(err)
	}
	src := graph.MaxDegreeVertex[uint32](g)

	// Serialize into the semi-external format: header + RAM-resident vertex
	// index + on-device edge records.
	image, err := mount.WriteBackings(g, mount.WriteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph file: %d bytes (%d vertices, %d edges)\n\n",
		image[0].Size(), g.NumVertices(), g.NumEdges())

	run := func(name string, profile ssd.Profile, workers int, semiSort, noCache bool) time.Duration {
		m, err := mount.Graph(image, mount.Options{SEM: true, Profile: profile, NoCache: noCache})
		if err != nil {
			log.Fatal(err)
		}
		cfg := m.Engine
		// A semi-external mount always sorts; the demo forces the key off to
		// show what it buys when queues are long. On the raw device it also
		// narrows the sweep to one visitor: no two extents merge.
		cfg.Workers, cfg.SemiSort = workers, semiSort
		if noCache {
			cfg.Prefetch = 0
		}
		start := time.Now()
		res, err := core.BFS[uint32](m.Adj, src, cfg)
		if err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		io := m.IO()
		fmt.Printf("%-34s %8v  devReads=%-5d cacheHit=%4.1f%%  levels=%d visited=%.1f%%\n",
			name, dur.Round(time.Millisecond), io.Device.Reads,
			100*io.CacheHitRate(), res.NumLevels(), 100*res.FracVisited())
		return dur
	}

	// Semi-sort is disabled here so the access stream is random: with one
	// worker every adjacency read's full device latency lands on the critical
	// path, while concurrent visitors keep all the flash channels busy.
	fmt.Println("1) latency hiding (raw device, no cache, random access order):")
	one := run("FusionIO, 1 worker", ssd.FusionIO, 1, false, true)
	many := run("FusionIO, 128 workers", ssd.FusionIO, 128, false, true)
	fmt.Printf("   -> %d concurrent visitors hid device latency: %.1fx faster than 1 worker\n",
		128, float64(one)/float64(many))
	fmt.Println("   (the paper's §II-D point: flash needs multithreaded I/O to reach its IOPS ceiling)")

	fmt.Println("\n2) storage locality (the default cache: half the file, readahead 32):")
	run("FusionIO, 128 workers", ssd.FusionIO, 128, true, false)
	run("FusionIO, 128 workers, no semisort", ssd.FusionIO, 128, false, false)
	run("Intel,    128 workers", ssd.Intel, 128, true, false)
	run("Corsair,  128 workers", ssd.Corsair, 128, true, false)
	fmt.Println("   -> device ordering FusionIO < Intel < Corsair matches the paper's Table IV; with")
	fmt.Println("      128 short queues the semi-sort key (§IV-C) no longer moves device reads — it")
	fmt.Println("      orders one queue, and the locality it buys needs a long one")
}
