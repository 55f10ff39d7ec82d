// Command traverse runs the asynchronous traversal engine over a graph file
// produced by cmd/gengraph, either in-memory or semi-externally through a
// simulated flash device. BFS chooses its driver from the graph (its `bfs:`
// line says which ran and why). The comparator engines (serial,
// level-synchronous, BSP) are the paper's exhibits and run from cmd/bench;
// here -check compares the engine's answer against the serial one.
//
// Examples:
//
//	traverse -graph a16.asg -algo bfs -workers 512
//	traverse -graph a14w.asg -algo sssp -src 0 -check
//	traverse -graph b14u.asg -algo cc -check
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
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mount"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// options is one parsed invocation: what to run, and the storage stack to
// run it on (-sem -nocache -profile -shards).
type options struct {
	path, algo string
	workers    int
	src        uint64
	srcSet     bool // -src was given; otherwise the max-degree vertex is the source
	check      bool
	profile    string
	profileSet bool // -profile was given
	mount      mount.Options
}

func main() {
	get := bind(flag.CommandLine)
	flag.Parse()
	o, err := get()
	if err != nil {
		fmt.Fprintf(os.Stderr, "traverse: %v\n", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "traverse: %v\n", err)
		if errors.Is(err, sem.ErrShardSpec) {
			// The files contradict the requested mount: a usage error, not a
			// runtime failure.
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// bind registers every flag of the command on fs. After fs.Parse, the
// returned function yields the validated options, or a usage error.
func bind(fs *flag.FlagSet) func() (options, error) {
	var o options
	fs.StringVar(&o.path, "graph", "", "graph file from gengraph (required)")
	fs.StringVar(&o.algo, "algo", "bfs", "algorithm: bfs, sssp, cc")
	fs.IntVar(&o.workers, "workers", 512, "worker count")
	fs.Uint64Var(&o.src, "src", 0, "source vertex (bfs/sssp); the max-degree vertex when not given")
	fs.BoolVar(&o.check, "check", false, "verify the result against the serial baseline")
	fs.StringVar(&o.profile, "profile", "FusionIO", "flash profile for -sem: FusionIO, Intel, Corsair")
	var (
		semMode = fs.Bool("sem", false, "semi-external: leave edges on a simulated flash device")
		nocache = fs.Bool("nocache", false, "raw device: mount the flash device without the block cache; a runner sweeps 16 visitors at a time and coalesces their reads")
		shards  = fs.Int("shards", 0, "mount graph.shard0..N-1 as one sharded graph (0 = auto-detect from the files present)")
	)
	return func() (options, error) {
		fs.Visit(func(f *flag.Flag) {
			o.srcSet = o.srcSet || f.Name == "src"
			o.profileSet = o.profileSet || f.Name == "profile"
		})
		o.mount.SEM, o.mount.NoCache, o.mount.Shards = *semMode, *nocache, *shards
		return o, validate(&o)
	}
}

// validate rejects bad flag combinations up front, before any file is
// opened, so bad invocations fail in microseconds with one line on stderr:
// unknown algorithm, missing graph or shard files, non-positive parallelism,
// and device flags without a device. It resolves -profile into
// o.mount.Profile.
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
	switch o.algo {
	case "bfs", "sssp", "cc":
	default:
		return fmt.Errorf("unknown -algo %q (want bfs, sssp, or cc)", o.algo)
	}
	if o.workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", o.workers)
	}
	if o.mount.SEM {
		var err error
		if o.mount.Profile, err = ssd.ProfileByName(o.profile); err != nil {
			return err
		}
	} else if o.mount.NoCache || o.profileSet {
		// Accepting them would run in memory and say nothing about the device
		// the user asked for.
		return fmt.Errorf("-nocache and -profile describe the flash device of a -sem mount; without -sem the graph is decoded into memory")
	}
	return nil
}

func run(o options) error {
	m, err := mount.Files(o.path, o.mount)
	if err != nil {
		return err
	}
	defer m.Close()
	adj, io := m.Adj, m.IO()
	switch {
	case m.CSR != nil:
		fmt.Printf("in-memory: %d vertices, %d edges, weighted=%v\n",
			m.CSR.NumVertices(), m.CSR.NumEdges(), m.CSR.Weighted())
	case m.Shards > 0:
		fmt.Printf("semi-external sharded: %d shards, %d vertices, %d edges, %d edge bytes (%.2f B/edge) on %s\n",
			m.Shards, adj.NumVertices(), io.Edges, io.EdgeBytes, io.BytesPerEdge(), o.mount.Profile.Name)
	default:
		format := "raw"
		if c, ok := adj.(interface{ Compressed() bool }); ok && c.Compressed() {
			format = "compressed"
		}
		fmt.Printf("semi-external: %d vertices, %d edges, %d edge bytes (%s, %.2f B/edge) on %s\n",
			adj.NumVertices(), io.Edges, io.EdgeBytes, format, io.BytesPerEdge(), o.mount.Profile.Name)
	}

	var src uint32
	if o.algo != "cc" {
		var rule string
		if src, rule, err = chooseSource(o, adj); err != nil {
			return err
		}
		fmt.Printf("source: %d (%s)\n", src, rule)
	}

	cfg := m.Engine
	cfg.Workers = o.workers
	if o.algo == "bfs" {
		// What BFS chooses its driver from, and the choice.
		store, edges := "im", io.Edges
		switch {
		case m.CSR != nil:
			edges = m.CSR.NumEdges()
		case o.mount.NoCache:
			store = "raw"
		default:
			store = "cached"
		}
		fmt.Printf("bfs: driver=%s (in-edges=%s, edges/vertex=%.1f, store=%s)\n",
			core.BFSDriver(adj, cfg), graph.InEdgeSource(adj), float64(edges)/float64(adj.NumVertices()), store)
	}
	start := time.Now()
	switch o.algo {
	case "bfs":
		res, err := core.BFS[uint32](adj, src, cfg)
		if err != nil {
			return err
		}
		io = report(start, res.Stats.String(), m)
		fmt.Printf("levels=%d visited=%.1f%%\n", res.NumLevels(), 100*res.FracVisited())
		if res.Stats.TopDownPhases+res.Stats.BottomUpPhases > 0 {
			fmt.Printf("direction: alpha=%d beta=%d topdown=%d bottomup=%d switches=%d peakFrontier=%d widest=%d\n",
				cfg.Alpha, cfg.Beta, res.Stats.TopDownPhases, res.Stats.BottomUpPhases, res.Stats.DirectionSwitches, res.Stats.PeakFrontier, len(res.Stats.WorkerVisits))
		}
		if o.check {
			want, err := baseline.SerialBFS(adj, src)
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
	case "sssp":
		res, err := core.SSSP[uint32](adj, src, cfg)
		if err != nil {
			return err
		}
		io = report(start, res.Stats.String(), m)
		if o.check {
			want, _, err := baseline.SerialDijkstra(adj, src)
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
	case "cc":
		res, err := core.CC[uint32](adj, cfg)
		if err != nil {
			return err
		}
		io = report(start, res.Stats.String(), m)
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
	}
	if o.mount.SEM {
		reportSemIO(io, m.Shards > 0)
	}
	return nil
}

// chooseSource is the source rule: -src when it was given on the command
// line (0 included), the max-degree vertex otherwise. rule says which.
func chooseSource(o options, adj graph.Adjacency[uint32]) (src uint32, rule string, err error) {
	if o.srcSet {
		if o.src >= adj.NumVertices() {
			return 0, "", fmt.Errorf("-src %d out of range for %d vertices", o.src, adj.NumVertices())
		}
		return uint32(o.src), "-src", nil
	}
	src = graph.MaxDegreeVertex(adj)
	return src, fmt.Sprintf("max degree %d", adj.Degree(src)), nil
}

// reportSemIO prints the end-to-end I/O picture of a semi-external run:
// device operation and byte counts (per shard when the mount is sharded, so
// the fan-out of sweep spans across member devices is visible), block-
// cache effectiveness, and — when the prefetch pipeline was on — its
// span-coalescing counters.
func reportSemIO(io mount.IO, sharded bool) {
	if sharded {
		for i, sh := range io.Shards {
			st := sh.Device
			fmt.Printf("shard%d device: reads=%d bytesRead=%d avgRead=%.0fB maxRead=%dB\n",
				i, st.Reads, st.BytesRead, st.AvgReadBytes(), st.MaxReadBytes)
		}
	}
	st := io.Device
	fmt.Printf("device: reads=%d writes=%d bytesRead=%d avgRead=%.0fB maxRead=%dB peakReads=%d\n",
		st.Reads, st.Writes, st.BytesRead, st.AvgReadBytes(), st.MaxReadBytes, st.PeakReads)
	if io.Cached {
		// waits are the hits that found their block still under I/O; fetched
		// blocks over misses is the mean span, the readahead where a miss's
		// window was absent; inflightHW is memory held beyond the budget at
		// the worst moment, in blocks (per shard device).
		fmt.Printf("cache: hits=%d misses=%d hitRate=%.1f%% waits=%d fetched=%d evictions=%d inflightHW=%d\n",
			io.CacheHits, io.CacheMisses, 100*io.CacheHitRate(), io.Cache.Waits, io.Cache.Blocks, io.Cache.Evictions, io.Cache.InflightHW)
	}
	ps := io.Prefetch
	if ps.Windows > 0 {
		fmt.Printf("prefetch: windows=%d vertices=%d spans=%d v/span=%.1f spanBytes=%d gapBytes=%d consumed=%.0f%% dedupSpans=%d dedupBytes=%d\n",
			ps.Windows, ps.Vertices, ps.Spans, ps.VertsPerSpan(), ps.SpanBytes, ps.GapBytes, 100*ps.ConsumedFrac(), ps.DedupSpans, ps.DedupBytes)
	}
	if ps.ScanSpans > 0 {
		fmt.Printf("scan: spans=%d spanBytes=%d avgSpan=%.0fB\n",
			ps.ScanSpans, ps.ScanBytes, float64(ps.ScanBytes)/float64(ps.ScanSpans))
	}
}

// report prints a traversal's time and stats, and returns the mount's I/O
// counters as the traversal left them, before -check reads the graph again.
func report(start time.Time, detail string, m *mount.Mounted) mount.IO {
	fmt.Printf("time=%.3fs  %s\n", time.Since(start).Seconds(), detail)
	return m.IO()
}
