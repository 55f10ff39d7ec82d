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
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lockfree"
	"repro/internal/sem"
	"repro/internal/ssd"
)

func main() {
	var (
		path     = flag.String("graph", "", "graph file from gengraph (required)")
		algo     = flag.String("algo", "bfs", "algorithm: bfs, sssp, cc")
		engine   = flag.String("engine", "async", "engine: async, lockfree, serial, levelsync, bsp")
		workers  = flag.Int("workers", 512, "async/levelsync worker count")
		ranks    = flag.Int("ranks", 16, "bsp simulated rank count")
		src      = flag.Uint64("src", 0, "source vertex (bfs/sssp); max-degree vertex if unset")
		autoSrc  = flag.Bool("autosrc", true, "pick the max-degree vertex as source")
		semMode  = flag.Bool("sem", false, "semi-external: leave edges on a simulated flash device")
		nocache  = flag.Bool("nocache", false, "mount the flash device without the block cache (every adjacency read hits the device; the regime BenchmarkSEMTraversal measures)")
		profile  = flag.String("profile", "FusionIO", "flash profile for -sem: FusionIO, Intel, Corsair")
		semisort = flag.Bool("semisort", true, "secondary vertex-id sort key (SEM locality)")
		batch    = flag.Int("batch", 0, "async mailbox batch size: 0 = default, 1 = lock-per-push")
		prefetch = flag.Int("prefetch", 0, "SEM pop-window size: pop this many visitors at once and start their adjacency reads asynchronously (0 = off)")
		prefgap  = flag.String("prefetchgap", strconv.Itoa(sem.DefaultPrefetchGap), "max byte gap bridged when coalescing prefetched adjacency extents into one device read (bytes, or with a k/KiB/m/MiB suffix)")
		cachePol = flag.String("cachepolicy", sem.PolicyLRU, "SEM block-cache eviction policy: lru (legacy recency order) or state (algorithm-driven: blocks with queued visitors are pinned, settled blocks evicted first)")
		check    = flag.Bool("check", false, "verify async results against the serial baseline")
		shards   = flag.Int("shards", 0, "mount graph.shard0..N-1 as one sharded graph (0 = auto-detect from the files present)")
		dirFlag  = flag.String("direction", "", "BFS direction policy: topdown (default), bottomup, or hybrid; non-topdown needs a graph with in-edges (gengraph/convert -symmetric)")
	)
	flag.Parse()
	if err := validate(*path, *algo, *engine, *workers, *ranks, *semMode, *profile, *shards, *dirFlag, *prefgap, *cachePol); err != nil {
		fmt.Fprintf(os.Stderr, "traverse: %v\n", err)
		os.Exit(2)
	}
	if err := run(*path, *algo, *engine, *workers, *ranks, *src, *autoSrc, *semMode, *nocache, *profile, *semisort, *batch, *prefetch, *prefgap, *check, *shards, *dirFlag, *cachePol); err != nil {
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
// direction policies the requested algorithm/engine pair cannot honor.
func validate(path, algo, engine string, workers, ranks int, semMode bool, profile string, shards int, direction, prefetchGap, cachePolicy string) error {
	if path == "" {
		return fmt.Errorf("-graph is required (a file produced by gengraph)")
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (0 = auto-detect), got %d", shards)
	}
	if _, _, err := sem.ShardPaths(path, shards); err != nil {
		return fmt.Errorf("-graph: %w", err)
	}
	supported, ok := engines[algo]
	if !ok {
		return fmt.Errorf("unknown -algo %q (want bfs, sssp, or cc)", algo)
	}
	found := false
	for _, e := range supported {
		found = found || e == engine
	}
	if !found {
		return fmt.Errorf("-algo %s does not support -engine %q (want one of %v)", algo, engine, supported)
	}
	if workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", workers)
	}
	if engine == "bsp" && ranks <= 0 {
		return fmt.Errorf("-ranks must be positive, got %d", ranks)
	}
	if semMode {
		if _, err := ssd.ProfileByName(profile); err != nil {
			return err
		}
	}
	if _, err := sem.ParseByteSize(prefetchGap); err != nil {
		return fmt.Errorf("-prefetchgap: %v", err)
	}
	if _, err := sem.ParseCachePolicy(cachePolicy); err != nil {
		return fmt.Errorf("-cachepolicy: %v", err)
	}
	dir, err := core.ParseDirection(direction)
	if err != nil {
		return err
	}
	if dir != core.DirectionTopDown && (algo != "bfs" || engine != "async") {
		return fmt.Errorf("-direction %s requires -algo bfs -engine async (got -algo %s -engine %s)", dir, algo, engine)
	}
	return nil
}

func run(path, algo, engine string, workers, ranks int, src uint64, autoSrc, semMode, nocache bool, profile string, semisort bool, batch, prefetch int, prefetchGapSpec string, check bool, shards int, direction, cachePolicy string) error {
	dir, err := core.ParseDirection(direction)
	if err != nil {
		return err
	}
	prefetchGap, err := sem.ParseByteSize(prefetchGapSpec)
	if err != nil {
		return fmt.Errorf("-prefetchgap: %v", err)
	}
	policy, err := sem.ParseCachePolicy(cachePolicy)
	if err != nil {
		return fmt.Errorf("-cachepolicy: %v", err)
	}
	paths, sharded, err := sem.ShardPaths(path, shards)
	if err != nil {
		return err
	}
	backings := make([]*ssd.FileBacking, len(paths))
	for i, pth := range paths {
		f, err := os.Open(pth)
		if err != nil {
			return err
		}
		defer f.Close()
		if backings[i], err = ssd.NewFileBacking(f); err != nil {
			return err
		}
	}

	var adj graph.Adjacency[uint32]
	var im *graph.CSR[uint32]
	var devs []*ssd.Device
	var caches []*sem.CachedStore
	var sgs []*sem.Graph[uint32]
	if semMode {
		p, err := ssd.ProfileByName(profile)
		if err != nil {
			return err
		}
		devs = make([]*ssd.Device, len(backings))
		caches = make([]*sem.CachedStore, len(backings))
		sgs = make([]*sem.Graph[uint32], len(backings))
		for i, b := range backings {
			devs[i] = ssd.New(p, b)
			var store sem.Store = devs[i]
			if !nocache {
				if caches[i], err = sem.NewCachedStoreRA(devs[i], 4096, b.Size()/2, 8); err != nil {
					return err
				}
				store = caches[i]
			}
			if sgs[i], err = sem.Open[uint32](store); err != nil {
				return err
			}
			if policy.StateAware() {
				sgs[i].EnableStateCache()
			}
			if prefetch > 1 {
				sgs[i].EnablePrefetch(sem.PrefetchConfig{MaxGap: prefetchGap})
			}
		}
		if sharded {
			mounted, err := sem.MountShards(sgs)
			if err != nil {
				return err
			}
			var edgeBytes int64
			for _, sg := range sgs {
				edgeBytes += sg.EdgeBytes()
			}
			bpe := 0.0
			if mounted.NumEdges() > 0 {
				bpe = float64(edgeBytes) / float64(mounted.NumEdges())
			}
			fmt.Printf("semi-external sharded: %d shards, %d vertices, %d edges, %d edge bytes (%.2f B/edge) on %s\n",
				mounted.NumShards(), mounted.NumVertices(), mounted.NumEdges(), edgeBytes, bpe, p.Name)
			adj = mounted
		} else {
			sg := sgs[0]
			format := "raw"
			if sg.Compressed() {
				format = "compressed"
			}
			bpe := 0.0
			if sg.NumEdges() > 0 {
				bpe = float64(sg.EdgeBytes()) / float64(sg.NumEdges())
			}
			fmt.Printf("semi-external: %d vertices, %d edges, %d edge bytes (%s, %.2f B/edge) on %s\n",
				sg.NumVertices(), sg.NumEdges(), sg.EdgeBytes(), format, bpe, p.Name)
			adj = sg
		}
	} else {
		if sharded {
			stores := make([]sem.Store, len(backings))
			for i, b := range backings {
				stores[i] = b
			}
			im, err = sem.LoadShardedCSR[uint32](stores)
		} else {
			im, err = sem.LoadCSR[uint32](backings[0])
		}
		if err != nil {
			return err
		}
		fmt.Printf("in-memory: %d vertices, %d edges, weighted=%v\n",
			im.NumVertices(), im.NumEdges(), im.Weighted())
		adj = im
		if dir != core.DirectionTopDown {
			// An in-memory mount can always serve reverse adjacency: pair the
			// CSR with its transpose (the on-flash in-edge section only
			// matters when the edges stay on the device).
			rev, err := graph.Transpose(im)
			if err != nil {
				return err
			}
			bidi, err := graph.NewBidi[uint32](im, rev)
			if err != nil {
				return err
			}
			adj = bidi
		}
	}

	if autoSrc && src == 0 && algo != "cc" {
		src = maxDegreeVertex(adj)
		fmt.Printf("source: %d (max degree %d)\n", src, adj.Degree(uint32(src)))
	}

	cfg := core.Config{Workers: workers, SemiSort: semisort, Batch: batch, Prefetch: prefetch, Direction: dir}
	if dir != core.DirectionTopDown {
		if _, ok := graph.InEdges[uint32](adj); !ok {
			return fmt.Errorf("%w: -direction %s needs a graph written with in-edges (gengraph/convert -symmetric)", core.ErrNoInEdges, dir)
		}
		// Derive the switch thresholds from the mounted graph's degree shape
		// instead of one-size-fits-all constants.
		cfg.Alpha, cfg.Beta = graph.DegreesOf[uint32](adj).DirectionThresholds()
		fmt.Printf("direction: %s (alpha=%d beta=%d)\n", dir, cfg.Alpha, cfg.Beta)
	}
	start := time.Now()
	switch {
	case algo == "bfs" && engine == "async":
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
		if check {
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
	case algo == "bfs" && engine == "lockfree":
		res, err := lockfree.BFS(adj, uint32(src), lockfree.Config{Workers: workers})
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
	case algo == "bfs" && engine == "serial":
		if _, err := baseline.SerialBFS(adj, uint32(src)); err != nil {
			return err
		}
		report(start, "serial queue BFS")
	case algo == "bfs" && engine == "levelsync":
		if _, err := baseline.LevelSyncBFS(adj, uint32(src), workers); err != nil {
			return err
		}
		report(start, fmt.Sprintf("level-synchronous BFS, %d workers", workers))
	case algo == "bfs" && engine == "bsp":
		c, err := bsp.NewCluster[uint32](adj, ranks)
		if err != nil {
			return err
		}
		_, stats, err := c.BFS(uint32(src))
		if err != nil {
			return err
		}
		report(start, fmt.Sprintf("BSP BFS: %d supersteps, %d messages, max imbalance %.2f",
			stats.Supersteps, stats.Messages, stats.MaxImbalance()))
	case algo == "sssp" && engine == "async":
		res, err := core.SSSP[uint32](adj, uint32(src), cfg)
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
		if check {
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
	case algo == "sssp" && engine == "lockfree":
		res, err := lockfree.SSSP(adj, uint32(src), lockfree.Config{Workers: workers})
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
	case algo == "sssp" && engine == "serial":
		if _, _, err := baseline.SerialDijkstra(adj, uint32(src)); err != nil {
			return err
		}
		report(start, "serial Dijkstra")
	case algo == "cc" && engine == "async":
		res, err := core.CC[uint32](adj, cfg)
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
		fmt.Printf("components=%d\n", res.NumComponents())
		if check {
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
	case algo == "cc" && engine == "lockfree":
		res, err := lockfree.CC(adj, lockfree.Config{Workers: workers})
		if err != nil {
			return err
		}
		report(start, res.Stats.String())
	case algo == "cc" && engine == "serial":
		if _, err := baseline.SerialCC(adj); err != nil {
			return err
		}
		report(start, "serial BFS-labelling CC")
	case algo == "cc" && engine == "levelsync":
		if _, err := baseline.LabelPropCC(adj, workers); err != nil {
			return err
		}
		report(start, fmt.Sprintf("label-propagation CC, %d workers", workers))
	case algo == "cc" && engine == "bsp":
		c, err := bsp.NewCluster[uint32](adj, ranks)
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
		return fmt.Errorf("unsupported -algo %q with -engine %q", algo, engine)
	}
	if semMode {
		reportSemIO(devs, caches, sgs, sharded)
	}
	return nil
}

// reportSemIO prints the end-to-end I/O picture of a semi-external run:
// device operation and byte counts (per shard when the mount is sharded, so
// the fan-out of pop-window spans across member devices is visible), block-
// cache effectiveness, and — when the prefetch pipeline was on — its
// span-coalescing counters.
func reportSemIO(devs []*ssd.Device, caches []*sem.CachedStore, sgs []*sem.Graph[uint32], sharded bool) {
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
	policy := ""
	for _, c := range caches {
		if c == nil {
			continue
		}
		haveCache = true
		policy = c.PolicyName()
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
		fmt.Printf("cache: policy=%s hits=%d misses=%d hitRate=%.1f%%", policy, hits, misses, hitRate)
		if policy == sem.PolicyState {
			// High-water mark of simultaneously pinned blocks (per shard device):
			// how much of the budget the settle counters actually defended.
			fmt.Printf(" pinnedHW=%d", pinnedHW)
		}
		fmt.Println()
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
