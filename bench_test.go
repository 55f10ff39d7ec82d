// Package repro's benchmarks regenerate every figure and table of the
// paper's evaluation in testing.B form, one benchmark per exhibit, plus
// micro-benchmarks of the engine's building blocks. The cmd/bench tool runs
// the same experiments through internal/harness with full table output; the
// benchmarks here are sized so `go test -bench=.` finishes in minutes.
//
//	BenchmarkFig1IOPS         — Figure 1: random-read IOPS per device profile
//	BenchmarkFig2Chain        — Figure 2: worst-case serialized chain
//	BenchmarkTable1BFS        — Table I: in-memory BFS, all competitors
//	BenchmarkTable2SSSP       — Table II: in-memory SSSP, UW and LUW weights
//	BenchmarkTable3CC         — Table III: in-memory CC, all competitors
//	BenchmarkTable4SEMBFS     — Table IV: semi-external BFS per device
//	BenchmarkTable5SEMCC      — Table V: semi-external CC per device
//	BenchmarkAblation*        — the DESIGN.md ablation studies
package repro

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lockfree"
	"repro/internal/mount"
	"repro/internal/pq"
	"repro/internal/sem"
	"repro/internal/server"
	"repro/internal/ssd"
)

// Benchmark workloads are scaled so each sub-benchmark iteration runs in
// milliseconds; cmd/bench runs the full-size versions.
const (
	benchScale  = 12
	benchDegree = 16
	benchSeed   = 42
)

var benchGraphs struct {
	once       sync.Once
	directed   *graph.CSR[uint32] // RMAT-A, directed, unweighted
	directedB  *graph.CSR[uint32] // RMAT-B, directed, unweighted
	weightedUW *graph.CSR[uint32]
	weightedLU *graph.CSR[uint32]
	undirected *graph.CSR[uint32]
	src        uint32
	chain      *graph.CSR[uint32]
	grid       *graph.CSR[uint32]
	semFile    []byte // directed graph serialized for SEM runs
	semFileU   []byte // undirected graph serialized for SEM CC runs
	semFileW   []byte // weighted (UW) graph serialized for SEM SSSP runs
	semFileC   []byte // directed graph in the compressed (v2) SEM format
	semFileWC  []byte // weighted (UW) graph in the compressed (v2) SEM format
}

func graphs(tb testing.TB) *struct {
	once       sync.Once
	directed   *graph.CSR[uint32]
	directedB  *graph.CSR[uint32]
	weightedUW *graph.CSR[uint32]
	weightedLU *graph.CSR[uint32]
	undirected *graph.CSR[uint32]
	src        uint32
	chain      *graph.CSR[uint32]
	grid       *graph.CSR[uint32]
	semFile    []byte
	semFileU   []byte
	semFileW   []byte
	semFileC   []byte
	semFileWC  []byte
} {
	benchGraphs.once.Do(func() {
		must := func(err error) {
			if err != nil {
				tb.Fatal(err)
			}
		}
		var err error
		benchGraphs.directed, err = gen.RMAT[uint32](benchScale, benchDegree, gen.RMATA, benchSeed)
		must(err)
		benchGraphs.directedB, err = gen.RMAT[uint32](benchScale, benchDegree, gen.RMATB, benchSeed)
		must(err)
		benchGraphs.weightedUW, err = gen.UniformWeights(benchGraphs.directed, benchSeed)
		must(err)
		benchGraphs.weightedLU, err = gen.LogUniformWeights(benchGraphs.directed, benchSeed)
		must(err)
		benchGraphs.undirected, err = gen.RMATUndirected[uint32](benchScale, benchDegree, gen.RMATA, benchSeed)
		must(err)
		benchGraphs.chain, err = gen.Chain[uint32](1 << benchScale)
		must(err)
		side := uint64(1) << (benchScale / 2)
		benchGraphs.grid, err = gen.Grid[uint32](side, side)
		must(err)
		for v := uint32(0); uint64(v) < benchGraphs.directed.NumVertices(); v++ {
			if benchGraphs.directed.Degree(v) > benchGraphs.directed.Degree(benchGraphs.src) {
				benchGraphs.src = v
			}
		}
		var buf bytes.Buffer
		must(sem.Write(&buf, benchGraphs.directed, sem.WriteConfig{}))
		benchGraphs.semFile = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		must(sem.Write(&buf, benchGraphs.undirected, sem.WriteConfig{}))
		benchGraphs.semFileU = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		must(sem.Write(&buf, benchGraphs.weightedUW, sem.WriteConfig{}))
		benchGraphs.semFileW = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		must(sem.Write(&buf, benchGraphs.directed, sem.WriteConfig{Compress: true}))
		benchGraphs.semFileC = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		must(sem.Write(&buf, benchGraphs.weightedUW, sem.WriteConfig{Compress: true}))
		benchGraphs.semFileWC = append([]byte(nil), buf.Bytes()...)
	})
	return &benchGraphs
}

// edgesPerSec reports traversal throughput the way the paper's tables invite
// comparison (time per graph is scale-dependent; edges/s is not).
func edgesPerSec(b *testing.B, edges uint64) {
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkFig1IOPS regenerates Figure 1's data points: saturated-thread
// random-read IOPS per device profile (the per-thread sweep is in cmd/bench
// -exp fig1).
func BenchmarkFig1IOPS(b *testing.B) {
	backing := &ssd.MemBacking{Data: make([]byte, 4<<20)}
	for _, p := range ssd.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				dev := ssd.New(p, backing)
				total += ssd.MeasureReadIOPS(dev, 64, 4096, 100*time.Millisecond, benchSeed)
			}
			b.ReportMetric(total/float64(b.N), "IOPS")
		})
	}
}

// BenchmarkFig2Chain regenerates Figure 2's worst case: the chain graph
// serializes the asynchronous traversal regardless of worker count.
func BenchmarkFig2Chain(b *testing.B) {
	g := graphs(b).chain
	for _, workers := range []int{1, 16, 512} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BFS[uint32](g, 0, core.Config{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, g.NumEdges())
		})
	}
}

// BenchmarkTable1BFS regenerates Table I: every in-memory BFS competitor on
// the same RMAT graphs.
func BenchmarkTable1BFS(b *testing.B) {
	gs := graphs(b)
	for _, in := range []struct {
		name string
		g    *graph.CSR[uint32]
	}{{"RMAT-A", gs.directed}, {"RMAT-B", gs.directedB}} {
		g := in.g
		b.Run(in.name+"/BGL-serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.SerialBFS[uint32](g, gs.src); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, g.NumEdges())
		})
		b.Run(in.name+"/MTGL-levelsync16", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.LevelSyncBFS[uint32](g, gs.src, 16); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, g.NumEdges())
		})
		b.Run(in.name+"/SNAP-vertexscan16", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.VertexScanBFS[uint32](g, gs.src, 16); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, g.NumEdges())
		})
		for _, workers := range []int{1, 16, 512} {
			b.Run(fmt.Sprintf("%s/async%d", in.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.BFS[uint32](g, gs.src, core.Config{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
				edgesPerSec(b, g.NumEdges())
			})
		}
		b.Run(in.name+"/PBGL-bsp16", func(b *testing.B) {
			c, err := bsp.NewCluster[uint32](g, 16)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := c.BFS(gs.src); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, g.NumEdges())
		})
	}
}

// BenchmarkTable2SSSP regenerates Table II: serial Dijkstra vs the
// asynchronous SSSP under both weight schemes.
func BenchmarkTable2SSSP(b *testing.B) {
	gs := graphs(b)
	for _, in := range []struct {
		name string
		g    *graph.CSR[uint32]
	}{{"UW", gs.weightedUW}, {"LUW", gs.weightedLU}} {
		g := in.g
		b.Run(in.name+"/BGL-dijkstra", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.SerialDijkstra[uint32](g, gs.src); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, g.NumEdges())
		})
		for _, workers := range []int{1, 16, 512} {
			b.Run(fmt.Sprintf("%s/async%d", in.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.SSSP[uint32](g, gs.src, core.Config{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
				edgesPerSec(b, g.NumEdges())
			})
		}
	}
}

// BenchmarkTable3CC regenerates Table III: every in-memory CC competitor on
// the undirected RMAT graph.
func BenchmarkTable3CC(b *testing.B) {
	gs := graphs(b)
	g := gs.undirected
	b.Run("BGL-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SerialCC[uint32](g); err != nil {
				b.Fatal(err)
			}
		}
		edgesPerSec(b, g.NumEdges())
	})
	b.Run("MTGL-labelprop16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.LabelPropCC[uint32](g, 16); err != nil {
				b.Fatal(err)
			}
		}
		edgesPerSec(b, g.NumEdges())
	})
	b.Run("unionfind16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.UnionFindCC[uint32](g, 16); err != nil {
				b.Fatal(err)
			}
		}
		edgesPerSec(b, g.NumEdges())
	})
	for _, workers := range []int{1, 16, 512} {
		b.Run(fmt.Sprintf("async%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CC[uint32](g, core.Config{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, g.NumEdges())
		})
	}
	b.Run("PBGL-bsp16", func(b *testing.B) {
		c, err := bsp.NewCluster[uint32](g, 16)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := c.CC(); err != nil {
				b.Fatal(err)
			}
		}
		edgesPerSec(b, g.NumEdges())
	})
}

// semMount mounts serialized graph images (one per shard) through
// internal/mount with SEM and SemiSort on: behind the default block cache, or
// — with opt.NoCache — directly on the device, the regime where the prefetch
// pipeline's span coalescing is the only source of locality. The returned
// engine configuration runs 128 workers.
func semMount(b *testing.B, files [][]byte, opt mount.Options) (*mount.Mounted, core.Config) {
	b.Helper()
	backings := make([]ssd.Backing, len(files))
	for k, f := range files {
		backings[k] = &ssd.MemBacking{Data: f}
	}
	opt.SEM, opt.SemiSort = true, true
	m, err := mount.Graph(backings, opt)
	if err != nil {
		b.Fatal(err)
	}
	cfg := m.Engine
	cfg.Workers = 128
	return m, cfg
}

// BenchmarkTable4SEMBFS regenerates Table IV: semi-external BFS per flash
// profile (cold cache per iteration).
func BenchmarkTable4SEMBFS(b *testing.B) {
	gs := graphs(b)
	for _, p := range ssd.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, cfg := semMount(b, [][]byte{gs.semFile}, mount.Options{Profile: p})
				if _, err := core.BFS[uint32](m.Adj, gs.src, cfg); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, gs.directed.NumEdges())
		})
	}
}

// BenchmarkTable5SEMCC regenerates Table V: semi-external CC per flash
// profile (cold cache per iteration).
func BenchmarkTable5SEMCC(b *testing.B) {
	gs := graphs(b)
	for _, p := range ssd.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, cfg := semMount(b, [][]byte{gs.semFileU}, mount.Options{Profile: p})
				if _, err := core.CC[uint32](m.Adj, cfg); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, gs.undirected.NumEdges())
		})
	}
}

// shardFiles serializes g as a `shards`-way partition, one byte slice per
// member, in the requested on-flash format.
func shardFiles(b *testing.B, g *graph.CSR[uint32], shards int, compressed bool) [][]byte {
	b.Helper()
	files := make([][]byte, shards)
	for k := range files {
		var buf bytes.Buffer
		cfg := sem.WriteConfig{Compress: compressed, Shard: &sem.ShardConfig{Shard: k, Shards: shards}}
		if err := sem.Write(&buf, g, cfg); err != nil {
			b.Fatal(err)
		}
		files[k] = append([]byte(nil), buf.Bytes()...)
	}
	return files
}

// BenchmarkSEMTraversal measures the asynchronous SEM I/O pipeline as a
// raw-device mount runs it: BFS and SSSP per flash profile and per on-flash
// edge format (raw v1 records vs delta+varint compressed v2 blocks). With the
// device cold and uncached, what the pop window buys is the coalescing rate —
// v/span vertices serviced per device read, each span paying one latency term
// instead of v/span of them — and the compression win is devB/edge: traversal
// bytes read from the device per graph edge (index reads at mount time
// excluded).
//
// The shards dimension (FusionIO only) mounts the same graph as
// a 2- or 4-way partition with one device per shard: per-shard read counts
// make the pop-window fan-out visible (healthy mounts read near-evenly), and
// devB/edge tracks the side cost of coalescing per shard — member files are
// sparser (same id space, 1/N the edges), so span coalescing bridges
// proportionally more discarded gap bytes.
//
// The direction dimension (BFS, FusionIO) runs the per-phase
// direction controller over files carrying the on-flash in-edge section:
// bottom-up phases replace per-vertex record pops with sequential in-section
// spans (scanSpans/op), which is where hybrid must beat pure top-down on the
// dense RMAT frontiers — and must stay within noise on the high-diameter
// chain/grid rows, where the controller never leaves top-down.
func BenchmarkSEMTraversal(b *testing.B) {
	gs := graphs(b)
	const window = 16
	algos := []struct {
		name      string
		src       *graph.CSR[uint32]
		raw, comp []byte
		run       func(adj graph.Adjacency[uint32], cfg core.Config) error
	}{
		{"BFS", gs.directed, gs.semFile, gs.semFileC, func(adj graph.Adjacency[uint32], cfg core.Config) error {
			_, err := core.BFS[uint32](adj, gs.src, cfg)
			return err
		}},
		{"SSSP", gs.weightedUW, gs.semFileW, gs.semFileWC, func(adj graph.Adjacency[uint32], cfg core.Config) error {
			_, err := core.SSSP[uint32](adj, gs.src, cfg)
			return err
		}},
	}
	raw := func(p ssd.Profile) mount.Options { return mount.Options{Profile: p, NoCache: true} }
	for _, a := range algos {
		for _, fm := range []struct {
			name       string
			file       []byte
			compressed bool
		}{{"raw", a.raw, false}, {"compressed", a.comp, true}} {
			for _, p := range ssd.Profiles {
				b.Run(fmt.Sprintf("%s/%s/%s/window%d", a.name, fm.name, p.Name, window), func(b *testing.B) {
					var reads, devBytes, spans, verts uint64
					for i := 0; i < b.N; i++ {
						m, cfg := semMount(b, [][]byte{fm.file}, raw(p))
						dev := m.Devices[0]
						mounted := dev.Stats().BytesRead
						if err := a.run(m.Adj, cfg); err != nil {
							b.Fatal(err)
						}
						reads += dev.Stats().Reads
						devBytes += dev.Stats().BytesRead - mounted
						ps := m.Graphs[0].PrefetchStats()
						spans += ps.Spans
						verts += ps.Vertices
					}
					edges := gs.directed.NumEdges()
					edgesPerSec(b, edges)
					b.ReportMetric(float64(reads)/float64(b.N), "devReads/op")
					b.ReportMetric(float64(devBytes)/float64(b.N)/float64(edges), "devB/edge")
					b.ReportMetric(float64(verts)/float64(spans), "v/span")
				})
			}
			for _, shards := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/%s/window%d/shards=%d", a.name, fm.name, ssd.FusionIO.Name, window, shards)
				b.Run(name, func(b *testing.B) {
					files := shardFiles(b, a.src, shards, fm.compressed)
					base := make([]uint64, shards)
					perReads := make([]uint64, shards)
					var devBytes uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m, cfg := semMount(b, files, raw(ssd.FusionIO))
						for k, d := range m.Devices {
							base[k] = d.Stats().BytesRead
						}
						if err := a.run(m.Adj, cfg); err != nil {
							b.Fatal(err)
						}
						for k, d := range m.Devices {
							st := d.Stats()
							perReads[k] += st.Reads
							devBytes += st.BytesRead - base[k]
						}
					}
					edges := a.src.NumEdges()
					edgesPerSec(b, edges)
					b.ReportMetric(float64(devBytes)/float64(b.N)/float64(edges), "devB/edge")
					for k, r := range perReads {
						b.ReportMetric(float64(r)/float64(b.N), fmt.Sprintf("shard%dReads/op", k))
					}
				})
			}
		}
	}

	for _, in := range []struct {
		name string
		g    *graph.CSR[uint32]
		src  uint32
	}{
		{"RMAT-A", gs.directed, gs.src},
		{"RMAT-B", gs.directedB, maxDegSrc(gs.directedB)},
		{"chain", gs.chain, 0},
		{"grid", gs.grid, 0},
	} {
		var buf bytes.Buffer
		if err := sem.Write(&buf, in.g, sem.WriteConfig{InEdges: true}); err != nil {
			b.Fatal(err)
		}
		file := append([]byte(nil), buf.Bytes()...)
		for _, dir := range []core.Direction{core.DirectionTopDown, core.DirectionHybrid} {
			b.Run(fmt.Sprintf("BFS/direction/%s/%s", in.name, dir), func(b *testing.B) {
				var reads, devBytes, scanSpans uint64
				for i := 0; i < b.N; i++ {
					opt := raw(ssd.FusionIO)
					opt.Direction = dir
					m, cfg := semMount(b, [][]byte{file}, opt)
					mounted := m.Devices[0].Stats().BytesRead
					if _, err := core.BFS[uint32](m.Adj, in.src, cfg); err != nil {
						b.Fatal(err)
					}
					st := m.Devices[0].Stats()
					reads += st.Reads
					devBytes += st.BytesRead - mounted
					scanSpans += m.Graphs[0].PrefetchStats().ScanSpans
				}
				edgesPerSec(b, in.g.NumEdges())
				b.ReportMetric(float64(reads)/float64(b.N), "devReads/op")
				b.ReportMetric(float64(devBytes)/float64(b.N)/float64(in.g.NumEdges()), "devB/edge")
				b.ReportMetric(float64(scanSpans)/float64(b.N), "scanSpans/op")
			})
		}
	}
}

// maxDegSrc returns the highest-out-degree vertex, the same source rule the
// harness tables use.
func maxDegSrc(g *graph.CSR[uint32]) uint32 {
	src := uint32(0)
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(src) {
			src = v
		}
	}
	return src
}

// BenchmarkAblationOversubscription regenerates the §IV-A thread
// oversubscription study on the asynchronous BFS.
func BenchmarkAblationOversubscription(b *testing.B) {
	gs := graphs(b)
	for _, workers := range []int{1, 4, 16, 64, 256, 512, 1024} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BFS[uint32](gs.directed, gs.src, core.Config{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, gs.directed.NumEdges())
		})
	}
}

// BenchmarkAblationSemiSort regenerates the §IV-C semi-sort locality study on
// semi-external BFS (FusionIO profile).
func BenchmarkAblationSemiSort(b *testing.B) {
	gs := graphs(b)
	for _, sorted := range []bool{true, false} {
		b.Run(fmt.Sprintf("semisort=%v", sorted), func(b *testing.B) {
			var reads uint64
			for i := 0; i < b.N; i++ {
				m, cfg := semMount(b, [][]byte{gs.semFile}, mount.Options{Profile: ssd.FusionIO})
				cfg.SemiSort = sorted
				if _, err := core.BFS[uint32](m.Adj, gs.src, cfg); err != nil {
					b.Fatal(err)
				}
				reads += m.Devices[0].Stats().Reads
			}
			b.ReportMetric(float64(reads)/float64(b.N), "devReads/op")
		})
	}
}

// BenchmarkAblationHash regenerates the §III-A queue-selection hash study on
// the asynchronous CC.
func BenchmarkAblationHash(b *testing.B) {
	gs := graphs(b)
	for _, h := range []struct {
		name string
		fn   func(uint64) uint64
	}{{"fibonacci", core.FibHash}, {"identity", core.IdentityHash}} {
		b.Run(h.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CC[uint32](gs.undirected, core.Config{Workers: 64, Hash: h.fn}); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, gs.undirected.NumEdges())
		})
	}
}

// --- micro-benchmarks of the building blocks ---

func BenchmarkHeapPushPop(b *testing.B) {
	h := pq.New(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(pq.Item{Pri: uint64(i * 2654435761 % 1000), V: uint64(i)})
		if i%2 == 1 {
			h.Pop()
		}
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	// Raw visitor dispatch rate: each visitor does no work and pushes
	// nothing, isolating queue + termination overhead.
	for _, workers := range []int{1, 16, 512} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := core.New[uint32](core.Config{Workers: workers}, func(*core.Ctx[uint32], pq.Item) error {
				return nil
			})
			e.Start()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Push(uint64(i), uint32(i), 0)
			}
			if _, err := e.Wait(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "visitors/s")
		})
	}
}

// BenchmarkPushThroughput isolates the visitor-to-visitor Push delivery
// path, the operation the mailbox layer batches: each visitor fans out
// follow-up pushes while a shared budget lasts, so nearly all b.N pushes
// travel producer→owner through Ctx.Push and the outbox (external
// Engine.Push, as used by BenchmarkEngineThroughput, takes the queue lock per
// push).
func BenchmarkPushThroughput(b *testing.B) {
	maxProcs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, maxProcs, 4 * maxProcs} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var budget atomic.Int64
			budget.Store(int64(b.N))
			e := core.New[uint32](core.Config{Workers: workers},
				func(ctx *core.Ctx[uint32], it pq.Item) error {
					for k := uint64(0); k < 4; k++ {
						if budget.Add(-1) < 0 {
							return nil
						}
						ctx.Push(it.Pri+1, uint32((it.V*4+k+1)%65536), 0)
					}
					return nil
				})
			e.Start()
			b.ResetTimer()
			e.Push(0, 0, 0)
			st, err := e.Wait()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.Pushes)/b.Elapsed().Seconds(), "pushes/s")
		})
	}
}

func BenchmarkRMATGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.RMAT[uint32](benchScale, benchDegree, gen.RMATA, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(uint64(1)<<benchScale*benchDegree)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkSEMFormatRoundTrip(b *testing.B) {
	gs := graphs(b)
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := sem.Write(&buf, gs.directed, sem.WriteConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		dev := ssd.New(ssd.Profile{Name: "fast", Channels: 64, ReadLatency: time.Nanosecond},
			&ssd.MemBacking{Data: gs.semFile})
		for i := 0; i < b.N; i++ {
			if _, err := sem.LoadCSR[uint32](dev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineComparison pits the ownership-hashed engine against the
// lock-free CAS + work-stealing alternative on the same BFS, the
// engine-design ablation in testing.B form.
func BenchmarkEngineComparison(b *testing.B) {
	gs := graphs(b)
	b.Run("ownership-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BFS[uint32](gs.directed, gs.src, core.Config{Workers: 64}); err != nil {
				b.Fatal(err)
			}
		}
		edgesPerSec(b, gs.directed.NumEdges())
	})
	b.Run("lockfree-steal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lockfree.BFS(gs.directed, gs.src, lockfree.Config{Workers: 64}); err != nil {
				b.Fatal(err)
			}
		}
		edgesPerSec(b, gs.directed.NumEdges())
	})
}

// BenchmarkDeltaStepping measures the Δ-stepping comparator across bucket
// widths.
func BenchmarkDeltaStepping(b *testing.B) {
	gs := graphs(b)
	for _, delta := range []uint64{1 << 8, 1 << 12} {
		b.Run(fmt.Sprintf("delta=2^%d", bitsLen(delta)-1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.DeltaStepping[uint32](gs.weightedUW, gs.src, delta, 16); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerSec(b, gs.weightedUW.NumEdges())
		})
	}
}

func bitsLen(v uint64) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// BenchmarkOutOfCoreBuild measures the external-sort graph build pipeline
// with a spill-forcing budget.
func BenchmarkOutOfCoreBuild(b *testing.B) {
	edges := gen.RMATEdges[uint32](benchScale, 1<<benchScale*benchDegree, gen.RMATA, benchSeed)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb := extsort.NewBuilder(1<<benchScale, false, 8192, dir)
		for _, e := range edges {
			if err := eb.Add(e.Src, e.Dst, 1); err != nil {
				b.Fatal(err)
			}
		}
		f, err := os.CreateTemp(dir, "bench-*.asg")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eb.WriteTo(f); err != nil {
			b.Fatal(err)
		}
		f.Close()
		os.Remove(f.Name())
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkRAID0Striping measures striped random reads at 1, 2, and 4 cards
// of fixed per-card hardware.
func BenchmarkRAID0Striping(b *testing.B) {
	backing := &ssd.MemBacking{Data: make([]byte, 1<<20)}
	card := ssd.CardProfile(ssd.FusionIO, 4)
	for _, cards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cards=%d", cards), func(b *testing.B) {
			arr, err := ssd.NewRAID0Array(card, cards, 64*1024, backing)
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			b.ResetTimer()
			// 32 concurrent readers issue b.N reads total.
			per := b.N/32 + 1
			for w := 0; w < 32; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					buf := make([]byte, 4096)
					for i := 0; i < per; i++ {
						off := int64((seed*per + i) * 7919 % (1<<20 - 4096))
						if _, err := arr.ReadAt(buf, off); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.ReportMetric(float64(32*per)/b.Elapsed().Seconds(), "IOPS")
		})
	}
}

// BenchmarkServerQueries measures the query service end to end, in-process:
// HTTP decode, admission, engine-pool traversal over a shared block-cached
// SEM store, snapshot, and render. "cold" forces a traversal per query
// (distinct sources, cache bypassed), "cached" serves one hot key from the
// result cache, and "concurrent" drives 16 cold clients at once against a
// 4-slot admission gate — the issue's serving regime.
func BenchmarkServerQueries(b *testing.B) {
	gs := graphs(b)
	dev := ssd.New(ssd.Profile{Name: "fast", Channels: 64, ReadLatency: time.Nanosecond},
		&ssd.MemBacking{Data: gs.semFileW})
	blockCache, err := sem.NewCachedStoreRA(dev, 4096, int64(len(gs.semFileW))/2, 8)
	if err != nil {
		b.Fatal(err)
	}
	sg, err := sem.Open[uint32](blockCache)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{
		Admit:        admit.Config{Slots: 4, MaxQueue: 256},
		CacheEntries: 64,
		Engine:       core.Config{Workers: 16, Prefetch: 64},
	})
	if err := srv.AddGraph(server.Graph{
		Name: "bench", Adj: sg, Storage: "sem", Device: dev, BlockCache: blockCache,
	}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	n := sg.NumVertices()
	post := func(source uint64, noCache bool) error {
		body := fmt.Sprintf(`{"graph":"bench","kernel":"sssp","source":%d,"targets":[0],"no_cache":%v}`,
			source, noCache)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := post(uint64(i)%n, true); err != nil {
				b.Fatal(err)
			}
		}
		edgesPerSec(b, sg.NumEdges())
	})
	b.Run("cached", func(b *testing.B) {
		if err := post(uint64(gs.src), false); err != nil {
			b.Fatal(err) // prime the one hot key
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := post(uint64(gs.src), false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		var next atomic.Uint64
		b.SetParallelism(16 / runtime.GOMAXPROCS(0))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := post(next.Add(1)%n, true); err != nil {
					b.Error(err)
					return
				}
			}
		})
		edgesPerSec(b, sg.NumEdges())
	})
}
