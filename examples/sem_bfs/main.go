// sem_bfs demonstrates the semi-external workflow end to end: generate an
// RMAT graph, serialize it to the on-device format, mount it on a simulated
// flash device behind the block cache, and traverse it with vertex state in
// RAM and every adjacency access going to "flash". It then shows the paper's
// two SEM effects: multithreading hides device latency (§II-D), and the
// semi-sorted visitor order raises storage locality (§IV-C).
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mount"
	"repro/internal/sem"
	"repro/internal/ssd"
)

func main() {
	const scale = 13
	fmt.Printf("generating RMAT-A graph at scale 2^%d, degree 16...\n", scale)
	g, err := gen.RMAT[uint32](scale, 16, gen.RMATA, 42)
	if err != nil {
		log.Fatal(err)
	}
	src := uint32(0)
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(src) {
			src = v
		}
	}

	// Serialize into the semi-external format: header + RAM-resident vertex
	// index + on-device edge records.
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph file: %d bytes (%d vertices, %d edges)\n\n",
		buf.Len(), g.NumVertices(), g.NumEdges())

	run := func(name string, profile ssd.Profile, workers int, semiSort bool, cacheFrac int64, readahead int) time.Duration {
		m, err := mount.Graph([]ssd.Backing{&ssd.MemBacking{Data: buf.Bytes()}}, mount.Options{
			SEM: true, Profile: profile, CacheFrac: cacheFrac, Readahead: readahead, SemiSort: semiSort,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg := m.Engine
		cfg.Workers = workers
		start := time.Now()
		res, err := core.BFS[uint32](m.Adj, src, cfg)
		if err != nil {
			log.Fatal(err)
		}
		dur := time.Since(start)
		hits, misses := m.Caches[0].Stats()
		fmt.Printf("%-34s %8v  devReads=%-5d cacheHit=%4.1f%%  levels=%d visited=%.1f%%\n",
			name, dur.Round(time.Millisecond), m.Devices[0].Stats().Reads,
			100*float64(hits)/float64(hits+misses), res.NumLevels(), 100*res.FracVisited())
		return dur
	}

	// Semi-sort is disabled here so the access stream is random: with one
	// worker every cache miss's full device latency lands on the critical
	// path, while concurrent visitors keep all the flash channels busy.
	fmt.Println("1) latency hiding (tiny cache, no readahead, random access order):")
	one := run("FusionIO, 1 worker", ssd.FusionIO, 1, false, 32, 1)
	many := run("FusionIO, 128 workers", ssd.FusionIO, 128, false, 32, 1)
	fmt.Printf("   -> %d concurrent visitors hid device latency: %.1fx faster than 1 worker\n",
		128, float64(one)/float64(many))
	fmt.Println("   (the paper's §II-D point: flash needs multithreaded I/O to reach its IOPS ceiling)")

	fmt.Println("\n2) storage locality (realistic cache + readahead):")
	run("FusionIO, 128 workers", ssd.FusionIO, 128, true, 2, 8)
	run("FusionIO, 128 workers, no semisort", ssd.FusionIO, 128, false, 2, 8)
	run("Intel,    128 workers", ssd.Intel, 128, true, 2, 8)
	run("Corsair,  128 workers", ssd.Corsair, 128, true, 2, 8)
	fmt.Println("   -> semi-sorting the visitor queues (§IV-C) cuts device reads; device ordering")
	fmt.Println("      FusionIO < Intel < Corsair matches the paper's Table IV")
}
