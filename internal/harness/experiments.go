package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mount"
	"repro/internal/ssd"
)

// Options parameterizes every experiment. The defaults scale the paper's
// workloads (2^25-2^30 vertices on a 16-core, 256 GB machine) down to sizes a
// development box traverses in seconds while preserving the workload shape:
// RMAT-A/RMAT-B at average degree 16, UW/LUW weights, thread oversubscription,
// and the three flash profiles.
type Options struct {
	Scales      []int // log2 vertex counts for the in-memory tables (paper: 25..30)
	SEMScales   []int // log2 vertex counts for the semi-external tables (paper: 27..30)
	Degree      int   // average out-degree (paper: 16)
	Threads     []int // async worker sweep (paper: 1, 16, 512)
	SyncWorkers int   // worker count for the MTGL/SNAP-class baselines (paper: 16)
	SEMThreads  int   // async workers for semi-external runs (paper: 256)
	Ranks       int   // simulated PBGL cluster size (paper: 64-1024 cores)
	Seed        uint64
	// MemModel applies the DRAM-latency model (SlowAdj) to every in-memory
	// competitor so comparisons run in the paper's memory-bound regime
	// rather than at on-chip-cache speed.
	MemModel bool
	// Options is the storage stack of every semi-external mount, handed to
	// internal/mount with Profile filled in per measurement. CacheFrac models
	// the paper's RAM-vs-graph ratio (with 16 GB of RAM the page cache covered
	// most of the 9-36 GB graph files and ~12%% of the 136 GB one), Readahead
	// the OS readahead over the semi-sorted access stream. Shards > 1
	// hash-partitions each mount across that many member stores, each with
	// its own simulated device, block cache and prefetcher.
	mount.Options
	// WebScale is the log2 size of the web-like stand-in graphs used by the
	// CC tables (paper: it-2004 .. ClueWeb09).
	WebScale int
	// SEMReps runs each semi-external measurement this many times and
	// reports the fastest, damping cache-timing variance.
	SEMReps int
	// Compressed mounts the semi-external tables on the delta+varint
	// compressed (v2) on-flash format instead of raw fixed records, cutting
	// device bytes per traversed edge; Table IV/V's B/edge column shows the
	// achieved density.
	Compressed bool
	// Fig1Threads and Fig1Duration control the IOPS sweep.
	Fig1Threads  []int
	Fig1Duration time.Duration
	Log          io.Writer // progress output; nil silences

	// inEdges makes every mount carry an on-flash in-edge section: the
	// direction ablation's, whose directed inputs have no other way to answer
	// "who points at v?".
	inEdges bool
}

// Defaults returns the laptop-scale configuration cmd/bench runs.
func Defaults() Options {
	return Options{
		Scales:      []int{12, 13, 14},
		SEMScales:   []int{13, 14},
		Degree:      16,
		Threads:     []int{1, 16, 512},
		SyncWorkers: 16,
		// 128 workers saturate the simulated devices' channels while keeping
		// the semi-sorted access band tight enough for the block cache (the
		// paper used 256 OS threads on 8 cores against physical SSDs).
		SEMThreads:   128,
		Ranks:        16,
		Seed:         42,
		MemModel:     true,
		Options:      mount.Options{SEM: true, CacheFrac: 2, CacheFloor: 64 << 10, Readahead: 8},
		SEMReps:      3,
		WebScale:     13,
		Fig1Threads:  []int{1, 2, 4, 8, 16, 32, 64, 128, 256},
		Fig1Duration: 200 * time.Millisecond,
	}
}

// edgeFormat names the on-flash edge layout the SEM tables mount.
func (o *Options) edgeFormat() string {
	format := o.writeOptions().Format(false)
	if o.Shards > 1 {
		format = fmt.Sprintf("%s x%d shards", format, o.Shards)
	}
	return format
}

// writeOptions is the serialization recipe for every SEM mount the harness
// builds: compressed v2 blocks under Compressed, o.Shards ways, plus an
// on-flash in-edge section for the direction ablation.
func (o *Options) writeOptions() mount.WriteOptions {
	return mount.WriteOptions{Compress: o.Compressed, Shards: o.Shards, InEdges: o.inEdges}
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format, args...)
	}
}

// wrap applies the DRAM-latency model when enabled.
func (o *Options) wrap(g graph.Adjacency[uint32]) graph.Adjacency[uint32] {
	if o.MemModel {
		return NewSlowAdj(g)
	}
	return g
}

var rmatVariants = []struct {
	Name   string
	Params gen.RMATParams
}{
	{"RMAT-A", gen.RMATA},
	{"RMAT-B", gen.RMATB},
}

// Figure1 reproduces the multithreaded random-read IOPS curves of Figure 1:
// for each flash profile, IOPS as an increasing number of threads issue
// 4 KiB random reads.
func Figure1(o Options) (*Table, error) {
	t := &Table{
		Title: "Figure 1: multithreaded random read IOPS on simulated NAND flash",
		Note:  "4 KiB random reads; devices saturate at their channel parallelism (paper: ~200k/60k/30k IOPS)",
		Cols:  append([]string{"threads"}, profileNames()...),
	}
	const span = 8 << 20
	backing := &ssd.MemBacking{Data: make([]byte, span)}
	for _, threads := range o.Fig1Threads {
		row := []string{fmt.Sprintf("%d", threads)}
		for _, p := range ssd.Profiles {
			dev := ssd.New(p, backing)
			iops := ssd.MeasureReadIOPS(dev, threads, 4096, o.Fig1Duration, o.Seed)
			row = append(row, fmt.Sprintf("%.0f", iops))
		}
		o.logf("fig1: threads=%d done\n", threads)
		t.Add(row...)
	}
	return t, nil
}

func profileNames() []string {
	names := make([]string, len(ssd.Profiles))
	for i, p := range ssd.Profiles {
		names[i] = p.Name
	}
	return names
}

// Table1 reproduces the in-memory BFS comparison of Table I: serial BGL,
// MTGL-class level-synchronous, SNAP-class vertex-scan, the asynchronous
// engine across a thread sweep, and the PBGL-class BSP cluster.
func Table1(o Options) (*Table, error) {
	t := &Table{
		Title: "Table I: In-Memory Breadth First Search",
		Note: fmt.Sprintf("degree=%d seed=%d memModel=%v; async columns are worker counts (paper: 1/16/512 threads)",
			o.Degree, o.Seed, o.MemModel),
		Cols: []string{"graph", "verts", "edges", "levs", "%vis",
			"BGL(s)", "MTGL(s)", "spd", "SNAP(s)", "spd"},
	}
	for _, th := range o.Threads {
		t.Cols = append(t.Cols, fmt.Sprintf("async%d(s)", th))
	}
	t.Cols = append(t.Cols, "scal", "spdBGL", "PBGL(s)")

	for _, variant := range rmatVariants {
		for _, scale := range o.Scales {
			g, err := gen.RMAT[uint32](scale, o.Degree, variant.Params, o.Seed)
			if err != nil {
				return nil, err
			}
			src := graph.MaxDegreeVertex[uint32](g)
			adj := o.wrap(g)

			var levels, frac string
			asyncTimes := make([]time.Duration, len(o.Threads))
			for i, th := range o.Threads {
				var res *core.BFSResult[uint32]
				dur, err := timeIt(func() error {
					var err error
					res, err = core.BFS[uint32](adj, src, core.Config{Workers: th, Direction: core.DirectionTopDown})
					return err
				})
				if err != nil {
					return nil, err
				}
				asyncTimes[i] = dur
				levels = fmt.Sprintf("%d", res.NumLevels())
				frac = fmt.Sprintf("%.1f%%", 100*res.FracVisited())
			}

			bglTime, err := timeIt(func() error {
				_, err := baseline.SerialBFS(adj, src)
				return err
			})
			if err != nil {
				return nil, err
			}
			mtglTime, err := timeIt(func() error {
				_, err := baseline.LevelSyncBFS(adj, src, o.SyncWorkers)
				return err
			})
			if err != nil {
				return nil, err
			}
			snapTime, err := timeIt(func() error {
				_, err := baseline.VertexScanBFS(adj, src, o.SyncWorkers)
				return err
			})
			if err != nil {
				return nil, err
			}
			cluster, err := bsp.NewCluster[uint32](adj, o.Ranks)
			if err != nil {
				return nil, err
			}
			pbglTime, err := timeIt(func() error {
				_, _, err := cluster.BFS(src)
				return err
			})
			if err != nil {
				return nil, err
			}

			best := asyncTimes[0]
			for _, d := range asyncTimes[1:] {
				if d < best {
					best = d
				}
			}
			row := []string{
				variant.Name, fmt.Sprintf("2^%d", scale), fmt.Sprintf("%d", g.NumEdges()),
				levels, frac,
				Seconds(bglTime), Seconds(mtglTime), Ratio(bglTime, mtglTime),
				Seconds(snapTime), Ratio(bglTime, snapTime),
			}
			for _, d := range asyncTimes {
				row = append(row, Seconds(d))
			}
			row = append(row, Ratio(asyncTimes[0], best), Ratio(bglTime, best), Seconds(pbglTime))
			t.Add(row...)
			o.logf("table1: %s 2^%d done\n", variant.Name, scale)
		}
	}
	return t, nil
}

// Table2 reproduces the in-memory SSSP comparison of Table II: serial
// Dijkstra (BGL) against the asynchronous engine, under uniform (UW) and
// log-uniform (LUW) edge weights.
func Table2(o Options) (*Table, error) {
	t := &Table{
		Title: "Table II: In-Memory Single Source Shortest Path",
		Note:  "UW: uniform weights [0,n); LUW: log-uniform weights (paper §V-A)",
		Cols:  []string{"graph", "wts", "verts", "edges", "BGL(s)"},
	}
	for _, th := range o.Threads {
		t.Cols = append(t.Cols, fmt.Sprintf("async%d(s)", th))
	}
	t.Cols = append(t.Cols, "scal", "spdBGL")

	weighters := []struct {
		Name string
		Fn   func(*graph.CSR[uint32], uint64) (*graph.CSR[uint32], error)
	}{
		{"UW", gen.UniformWeights[uint32]},
		{"LUW", gen.LogUniformWeights[uint32]},
	}
	for _, variant := range rmatVariants {
		for _, wt := range weighters {
			for _, scale := range o.Scales {
				g, err := gen.RMAT[uint32](scale, o.Degree, variant.Params, o.Seed)
				if err != nil {
					return nil, err
				}
				g, err = wt.Fn(g, o.Seed+uint64(scale))
				if err != nil {
					return nil, err
				}
				src := graph.MaxDegreeVertex[uint32](g)
				adj := o.wrap(g)

				bglTime, err := timeIt(func() error {
					_, _, err := baseline.SerialDijkstra(adj, src)
					return err
				})
				if err != nil {
					return nil, err
				}
				asyncTimes := make([]time.Duration, len(o.Threads))
				for i, th := range o.Threads {
					asyncTimes[i], err = timeIt(func() error {
						_, err := core.SSSP[uint32](adj, src, core.Config{Workers: th})
						return err
					})
					if err != nil {
						return nil, err
					}
				}
				best := asyncTimes[0]
				for _, d := range asyncTimes[1:] {
					if d < best {
						best = d
					}
				}
				row := []string{
					variant.Name, wt.Name, fmt.Sprintf("2^%d", scale),
					fmt.Sprintf("%d", g.NumEdges()), Seconds(bglTime),
				}
				for _, d := range asyncTimes {
					row = append(row, Seconds(d))
				}
				row = append(row, Ratio(asyncTimes[0], best), Ratio(bglTime, best))
				t.Add(row...)
				o.logf("table2: %s %s 2^%d done\n", variant.Name, wt.Name, scale)
			}
		}
	}
	return t, nil
}
