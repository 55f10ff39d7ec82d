// Command traverse runs a graph traversal over a graph file produced by
// cmd/gengraph, either in-memory or semi-externally through a simulated
// flash device, with a choice of engines.
//
// Examples:
//
//	traverse -graph a16.asg -algo bfs -engine async -workers 512
//	traverse -graph a16.asg -algo bfs -engine serial
//	traverse -graph a14w.asg -algo sssp -engine async
//	traverse -graph b14u.asg -algo cc -engine bsp -ranks 16
//	traverse -graph a16.asg -algo bfs -sem -profile FusionIO -workers 128
//	traverse -graph b16.asg -shards 4 -algo bfs -sem        # b16.asg.shard0..3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lockfree"
	"repro/internal/mount"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// options is one parsed invocation: what to run, and the storage stack to
// run it on (the -semisort -direction block shared with cmd/bench and
// cmd/serve, plus this command's own -sem -nocache -profile -shards).
type options struct {
	path, algo, engine string
	workers, ranks     int
	src                uint64
	autoSrc, check     bool
	profile            string
	mount              mount.Options
}

func main() {
	var o options
	flag.StringVar(&o.path, "graph", "", "graph file from gengraph (required)")
	flag.StringVar(&o.algo, "algo", "bfs", "algorithm: bfs, sssp, cc")
	flag.StringVar(&o.engine, "engine", "async", "engine: async, lockfree, serial, levelsync, bsp")
	flag.IntVar(&o.workers, "workers", 512, "async/levelsync worker count")
	flag.IntVar(&o.ranks, "ranks", 16, "bsp simulated rank count")
	flag.Uint64Var(&o.src, "src", 0, "source vertex (bfs/sssp); max-degree vertex if unset")
	flag.BoolVar(&o.autoSrc, "autosrc", true, "pick the max-degree vertex as source")
	flag.BoolVar(&o.check, "check", false, "verify async results against the serial baseline")
	flag.StringVar(&o.profile, "profile", "FusionIO", "flash profile for -sem: FusionIO, Intel, Corsair")
	var (
		semMode = flag.Bool("sem", false, "semi-external: leave edges on a simulated flash device")
		nocache = flag.Bool("nocache", false, "raw device: mount the flash device without the block cache; the mount pops 16-visitor windows and coalesces their reads")
		shards  = flag.Int("shards", 0, "mount graph.shard0..N-1 as one sharded graph (0 = auto-detect from the files present)")
	)
	mountFlags := mount.Bind(flag.CommandLine)
	flag.Parse()
	var err error
	if o.mount, err = mountFlags(); err == nil {
		o.mount.SEM, o.mount.NoCache, o.mount.Shards = *semMode, *nocache, *shards
		err = validate(&o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "traverse: %v\n", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "traverse: %v\n", err)
		if errors.Is(err, sem.ErrShardSpec) || errors.Is(err, core.ErrNoInEdges) {
			// The files contradict the requested mount or capability: a usage
			// error, not a runtime failure.
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// engines maps each algorithm to the engines that implement it — the same
// pairs the run switch dispatches on, checked before any file is opened so
// bad invocations fail in microseconds with one line on stderr.
var engines = map[string][]string{
	"bfs":  {"async", "lockfree", "serial", "levelsync", "bsp"},
	"sssp": {"async", "lockfree", "serial"},
	"cc":   {"async", "lockfree", "serial", "levelsync", "bsp"},
}

// validate rejects bad flag combinations up front: unknown algorithm or
// engine, missing graph or shard files, non-positive parallelism, and
// direction policies the requested algorithm/engine pair cannot honor. It
// resolves -profile into o.mount.Profile.
func validate(o *options) error {
	if o.path == "" {
		return fmt.Errorf("-graph is required (a file produced by gengraph)")
	}
	if err := o.mount.Validate(); err != nil {
		return err
	}
	if _, _, err := sem.ShardPaths(o.path, o.mount.Shards); err != nil {
		return fmt.Errorf("-graph: %w", err)
	}
	supported, ok := engines[o.algo]
	if !ok {
		return fmt.Errorf("unknown -algo %q (want bfs, sssp, or cc)", o.algo)
	}
	found := false
	for _, e := range supported {
		found = found || e == o.engine
	}
	if !found {
		return fmt.Errorf("-algo %s does not support -engine %q (want one of %v)", o.algo, o.engine, supported)
	}
	if o.workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", o.workers)
	}
	if o.engine == "bsp" && o.ranks <= 0 {
		return fmt.Errorf("-ranks must be positive, got %d", o.ranks)
	}
	if o.mount.SEM {
		var err error
		if o.mount.Profile, err = ssd.ProfileByName(o.profile); err != nil {
			return err
		}
	}
	if dir := o.mount.Direction; dir != core.DirectionTopDown && (o.algo != "bfs" || o.engine != "async") {
		return fmt.Errorf("-direction %s requires -algo bfs -engine async (got -algo %s -engine %s)", dir, o.algo, o.engine)
	}
	return nil
}

func run(o options) error {
	src := o.src
	m, err := mount.Files(o.path, o.mount)
	if err != nil {
		return err
	}
	defer m.Close()
	adj, dir := m.Adj, o.mount.Direction
	switch {
	case m.CSR != nil:
		fmt.Printf("in-memory: %d vertices, %d edges, weighted=%v\n",
			m.CSR.NumVertices(), m.CSR.NumEdges(), m.CSR.Weighted())
	case m.Shards > 0:
		router := adj.(*graph.Sharded[uint32])
		edgeBytes := semEdgeBytes(m.Graphs)
		fmt.Printf("semi-external sharded: %d shards, %d vertices, %d edges, %d edge bytes (%.2f B/edge) on %s\n",
			router.NumShards(), router.NumVertices(), router.NumEdges(), edgeBytes, perEdge(edgeBytes, router.NumEdges()), o.mount.Profile.Name)
	default:
		sg := m.Graphs[0]
		format := "raw"
		if sg.Compressed() {
			format = "compressed"
		}
		fmt.Printf("semi-external: %d vertices, %d edges, %d edge bytes (%s, %.2f B/edge) on %s\n",
			sg.NumVertices(), sg.NumEdges(), sg.EdgeBytes(), format, perEdge(sg.EdgeBytes(), sg.NumEdges()), o.mount.Profile.Name)
	}

	if o.autoSrc && src == 0 && o.algo != "cc" {
		src = maxDegreeVertex(adj)
		fmt.Printf("source: %d (max degree %d)\n", src, adj.Degree(uint32(src)))
	}

	cfg := m.Engine
	cfg.Workers = o.workers
	if dir != core.DirectionTopDown {
		fmt.Printf("direction: %s (alpha=%d beta=%d)\n", dir, cfg.Alpha, cfg.Beta)
	}
	start := time.Now()
	switch {
	case o.algo == "bfs" && o.engine == "async":
		res, err := core.BFS[uint32](adj, uint32(src), cfg)
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
		fmt.Printf("levels=%d visited=%.1f%%\n", res.NumLevels(), 100*res.FracVisited())
		if dir != core.DirectionTopDown {
			fmt.Printf("direction: topdown=%d bottomup=%d switches=%d peakFrontier=%d\n",
				res.Stats.TopDownPhases, res.Stats.BottomUpPhases, res.Stats.DirectionSwitches, res.Stats.PeakFrontier)
		}
		if o.check {
			want, err := baseline.SerialBFS(adj, uint32(src))
			if err != nil {
				return err
			}
			for v := range want {
				if res.Level[v] != want[v] {
					return fmt.Errorf("check failed: level[%d] = %d, serial says %d", v, res.Level[v], want[v])
				}
			}
			fmt.Println("check: levels match serial BFS")
		}
	case o.algo == "bfs" && o.engine == "lockfree":
		res, err := lockfree.BFS(adj, uint32(src), lockfree.Config{Workers: o.workers})
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
	case o.algo == "bfs" && o.engine == "serial":
		if _, err := baseline.SerialBFS(adj, uint32(src)); err != nil {
			return err
		}
		report(start, "serial queue BFS")
	case o.algo == "bfs" && o.engine == "levelsync":
		if _, err := baseline.LevelSyncBFS(adj, uint32(src), o.workers); err != nil {
			return err
		}
		report(start, fmt.Sprintf("level-synchronous BFS, %d workers", o.workers))
	case o.algo == "bfs" && o.engine == "bsp":
		c, err := bsp.NewCluster[uint32](adj, o.ranks)
		if err != nil {
			return err
		}
		_, stats, err := c.BFS(uint32(src))
		if err != nil {
			return err
		}
		report(start, fmt.Sprintf("BSP BFS: %d supersteps, %d messages, max imbalance %.2f",
			stats.Supersteps, stats.Messages, stats.MaxImbalance()))
	case o.algo == "sssp" && o.engine == "async":
		res, err := core.SSSP[uint32](adj, uint32(src), cfg)
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
		if o.check {
			want, _, err := baseline.SerialDijkstra(adj, uint32(src))
			if err != nil {
				return err
			}
			for v := range want {
				if res.Dist[v] != want[v] {
					return fmt.Errorf("check failed: dist[%d] = %d, Dijkstra says %d", v, res.Dist[v], want[v])
				}
			}
			fmt.Println("check: distances match Dijkstra")
		}
	case o.algo == "sssp" && o.engine == "lockfree":
		res, err := lockfree.SSSP(adj, uint32(src), lockfree.Config{Workers: o.workers})
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
	case o.algo == "sssp" && o.engine == "serial":
		if _, _, err := baseline.SerialDijkstra(adj, uint32(src)); err != nil {
			return err
		}
		report(start, "serial Dijkstra")
	case o.algo == "cc" && o.engine == "async":
		res, err := core.CC[uint32](adj, cfg)
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
		fmt.Printf("components=%d\n", res.NumComponents())
		if o.check {
			want, err := baseline.SerialCC(adj)
			if err != nil {
				return err
			}
			for v := range want {
				if res.ID[v] != want[v] {
					return fmt.Errorf("check failed: id[%d] = %d, serial says %d", v, res.ID[v], want[v])
				}
			}
			fmt.Println("check: labels match serial CC")
		}
	case o.algo == "cc" && o.engine == "lockfree":
		res, err := lockfree.CC(adj, lockfree.Config{Workers: o.workers})
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
	case o.algo == "cc" && o.engine == "serial":
		if _, err := baseline.SerialCC(adj); err != nil {
			return err
		}
		report(start, "serial BFS-labelling CC")
	case o.algo == "cc" && o.engine == "levelsync":
		if _, err := baseline.LabelPropCC(adj, o.workers); err != nil {
			return err
		}
		report(start, fmt.Sprintf("label-propagation CC, %d workers", o.workers))
	case o.algo == "cc" && o.engine == "bsp":
		c, err := bsp.NewCluster[uint32](adj, o.ranks)
		if err != nil {
			return err
		}
		_, stats, err := c.CC()
		if err != nil {
			return err
		}
		report(start, fmt.Sprintf("BSP CC: %d supersteps, %d messages, max imbalance %.2f",
			stats.Supersteps, stats.Messages, stats.MaxImbalance()))
	default:
		return fmt.Errorf("unsupported -algo %q with -engine %q", o.algo, o.engine)
	}
	if o.mount.SEM {
		reportSemIO(m)
	}
	return nil
}

func semEdgeBytes(sgs []*sem.Graph[uint32]) int64 {
	var total int64
	for _, sg := range sgs {
		total += sg.EdgeBytes()
	}
	return total
}

func perEdge(edgeBytes int64, edges uint64) float64 {
	if edges == 0 {
		return 0
	}
	return float64(edgeBytes) / float64(edges)
}

// reportSemIO prints the end-to-end I/O picture of a semi-external run:
// device operation and byte counts (per shard when the mount is sharded, so
// the fan-out of pop-window spans across member devices is visible), block-
// cache effectiveness, and — when the prefetch pipeline was on — its
// span-coalescing counters.
func reportSemIO(m *mount.Mounted) {
	devs, caches, sgs, sharded := m.Devices, m.Caches, m.Graphs, m.Shards > 0
	stats := make([]ssd.Stats, len(devs))
	for i, d := range devs {
		stats[i] = d.Stats()
		if sharded {
			fmt.Printf("shard%d device: reads=%d bytesRead=%d avgRead=%.0fB maxRead=%dB\n",
				i, stats[i].Reads, stats[i].BytesRead, stats[i].AvgReadBytes(), stats[i].MaxReadBytes)
		}
	}
	st := ssd.Sum(stats...)
	fmt.Printf("device: reads=%d writes=%d bytesRead=%d avgRead=%.0fB maxRead=%dB peakReads=%d\n",
		st.Reads, st.Writes, st.BytesRead, st.AvgReadBytes(), st.MaxReadBytes, st.PeakReads)
	var hits, misses uint64
	var pinnedHW int64
	haveCache := false
	for _, c := range caches {
		if c == nil {
			continue
		}
		haveCache = true
		h, m := c.Stats()
		hits += h
		misses += m
		if hw := c.PinnedHW(); hw > pinnedHW {
			pinnedHW = hw
		}
	}
	if haveCache {
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = 100 * float64(hits) / float64(hits+misses)
		}
		// waits are the hits that found their block still under I/O; fetched
		// blocks over misses is the mean span; inflightHW is memory held
		// beyond the budget at the worst moment, in blocks (per shard device);
		// pinnedHW is the most blocks holding queued visitors at once (per
		// shard device): how much of the budget the settle counters defended.
		io := m.CacheIO()
		fmt.Printf("cache: hits=%d misses=%d hitRate=%.1f%% waits=%d fetched=%d evictions=%d inflightHW=%d pinnedHW=%d\n",
			hits, misses, hitRate, io.Waits, io.Blocks, io.Evictions, io.InflightHW, pinnedHW)
	}
	var ps sem.PrefetchStats
	for _, sg := range sgs {
		ps.Add(sg.PrefetchStats())
	}
	if ps.Windows > 0 {
		fmt.Printf("prefetch: windows=%d vertices=%d spans=%d v/span=%.1f spanBytes=%d gapBytes=%d consumed=%.0f%% dedupSpans=%d dedupBytes=%d\n",
			ps.Windows, ps.Vertices, ps.Spans, ps.VertsPerSpan(), ps.SpanBytes, ps.GapBytes, 100*ps.ConsumedFrac(), ps.DedupSpans, ps.DedupBytes)
	}
	if ps.ScanSpans > 0 {
		fmt.Printf("scan: spans=%d spanBytes=%d avgSpan=%.0fB\n",
			ps.ScanSpans, ps.ScanBytes, float64(ps.ScanBytes)/float64(ps.ScanSpans))
	}
}

func maxDegreeVertex(g graph.Adjacency[uint32]) uint64 {
	best := uint32(0)
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return uint64(best)
}

func report(start time.Time, detail string) {
	fmt.Printf("time=%.3fs  %s\n", time.Since(start).Seconds(), detail)
}
