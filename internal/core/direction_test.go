package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
)

// semMirrorCfg serializes g per cfg and reopens it, so traversals exercise
// the SEM read paths (including the in-edge section / symmetric flag).
func semMirrorCfg(t testing.TB, g *graph.CSR[uint32], cfg sem.WriteConfig) *sem.Graph[uint32] {
	t.Helper()
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, cfg); err != nil {
		t.Fatal(err)
	}
	sg, err := sem.Open[uint32](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// rawMirror serializes g per cfg and mounts it the way a raw-device mount
// does: the pop window's prefetcher over a zero-budget block table — the one
// Open puts under a raw store, built here so that the test can read it back.
func rawMirror(t testing.TB, g *graph.CSR[uint32], cfg sem.WriteConfig) (*sem.Graph[uint32], *sem.CachedStore) {
	t.Helper()
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, cfg); err != nil {
		t.Fatal(err)
	}
	table, err := sem.NewCachedStore(bytes.NewReader(buf.Bytes()), 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sem.Open[uint32](table)
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(sem.PrefetchConfig{MaxGap: sem.DefaultPrefetchGap})
	return sg, table
}

// assertQuiescent lets the reads a traversal left in flight land, then fails
// if any table still has a block under I/O: a raw-device mount's table ends
// every traversal holding nothing.
func assertQuiescent(t testing.TB, tables []*sem.CachedStore) {
	t.Helper()
	for _, c := range tables {
		for deadline := time.Now().Add(20 * time.Second); c.IOStats().Inflight != 0 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := c.IOStats().Inflight; n != 0 {
			t.Errorf("%d blocks left under I/O", n)
		}
	}
}

// semShardedMirror writes g as a shard set per cfg (plus the shard field) and
// mounts the shard router over the reopened members.
func semShardedMirror(t testing.TB, g *graph.CSR[uint32], shards int, cfg sem.WriteConfig) *graph.Sharded[uint32] {
	t.Helper()
	gs := make([]*sem.Graph[uint32], shards)
	for k := 0; k < shards; k++ {
		var buf bytes.Buffer
		c := cfg
		c.Shard = &sem.ShardConfig{Shard: k, Shards: shards}
		if err := sem.Write(&buf, g, c); err != nil {
			t.Fatal(err)
		}
		sg, err := sem.Open[uint32](bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		gs[k] = sg
	}
	mount, err := sem.MountShards(gs)
	if err != nil {
		t.Fatal(err)
	}
	return mount
}

// bidiIM pairs an in-memory CSR with its transpose (raw back end).
func bidiIM(t testing.TB, g *graph.CSR[uint32]) *graph.Bidi[uint32] {
	t.Helper()
	rev, err := graph.Transpose(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBidi[uint32](g, rev)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bidiCompressed pairs the compressed CSR with its compressed transpose.
func bidiCompressed(t testing.TB, g *graph.CSR[uint32]) *graph.Bidi[uint32] {
	t.Helper()
	c, err := graph.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.Transpose(g)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := graph.Compress(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBidi[uint32](c, rev)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDirectionEquivalence is the direction-dimension property test: BFS
// levels must be bit-identical across the driver BFS chooses for itself,
// topdown (the asynchronous kernel, forced), forced bottomup, and hybrid, on
// every direction-capable back end — IM
// raw/compressed Bidi pairings, symmetric IM, SEM v1/v2 with in-edge
// sections, SEM symmetric, and a sharded SEM mount — against the serial
// baseline. Parents are checked structurally (a parent must sit exactly one
// level above its child), the same contract the async kernel's tests use.
// The SEM rows are raw-device mounts, sweeping 16, and their block tables must
// be at rest after every row.
func TestDirectionEquivalence(t *testing.T) {
	type workload struct {
		name   string
		g      graph.Adjacency[uint32]
		base   *graph.CSR[uint32] // logical graph for the serial baseline
		tables []*sem.CachedStore // a SEM row's block tables, one per shard
	}
	raw := func(name string, g *graph.CSR[uint32], shards int, cfg sem.WriteConfig) workload {
		w := workload{name: name, base: g}
		if shards == 0 {
			sg, table := rawMirror(t, g, cfg)
			w.g, w.tables = sg, []*sem.CachedStore{table}
			return w
		}
		gs := make([]*sem.Graph[uint32], shards)
		for k := range gs {
			c := cfg
			c.Shard = &sem.ShardConfig{Shard: k, Shards: shards}
			var table *sem.CachedStore
			gs[k], table = rawMirror(t, g, c)
			w.tables = append(w.tables, table)
		}
		mount, err := sem.MountShards(gs)
		if err != nil {
			t.Fatal(err)
		}
		w.g = mount
		return w
	}
	var workloads []workload
	for seed := uint64(1); seed <= 2; seed++ {
		rm, err := gen.RMAT[uint32](8, 8, gen.RMATA, seed)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads,
			workload{name: fmt.Sprintf("rmat-%d-im-raw", seed), g: bidiIM(t, rm), base: rm},
			workload{name: fmt.Sprintf("rmat-%d-im-compressed", seed), g: bidiCompressed(t, rm), base: rm},
			raw(fmt.Sprintf("rmat-%d-sem-v1", seed), rm, 0, sem.WriteConfig{InEdges: true}),
			raw(fmt.Sprintf("rmat-%d-sem-v2", seed), rm, 0, sem.WriteConfig{Compress: true, InEdges: true}),
			raw(fmt.Sprintf("rmat-%d-sem-sharded-v1", seed), rm, 3, sem.WriteConfig{InEdges: true}),
			raw(fmt.Sprintf("rmat-%d-sem-sharded-v2", seed), rm, 3, sem.WriteConfig{Compress: true, InEdges: true}),
		)
	}
	ug := randomUndirected(t, 400, 1200, 7)
	// A symmetric graph is its own transpose.
	sym, err := graph.NewBidi[uint32](ug, ug)
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads,
		workload{name: "undirected-im-symmetric", g: sym, base: ug},
		raw("undirected-sem-symmetric-v1", ug, 0, sem.WriteConfig{Symmetric: true}),
		raw("undirected-sem-symmetric-v2", ug, 0, sem.WriteConfig{Compress: true, Symmetric: true}),
		// Sharded symmetric members hold complete out-lists of their owned
		// vertices, which double as complete in-lists on a symmetric graph.
		raw("undirected-sem-sharded-symmetric", ug, 3, sem.WriteConfig{Symmetric: true}),
	)
	// A long chain keeps every frontier at one vertex: the serial-inline
	// phase path, and the hybrid policy must never leave top-down.
	chainB := graph.NewBuilder[uint32](512, false)
	for v := uint32(0); v+1 < 512; v++ {
		chainB.AddEdge(v, v+1, 1)
		chainB.AddEdge(v+1, v, 1)
	}
	chain, err := chainB.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, workload{name: "chain-im", g: bidiIM(t, chain), base: chain})

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			src := uint32(0)
			want, err := baseline.SerialBFS[uint32](w.base, src)
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []Direction{DirectionAuto, DirectionTopDown, DirectionBottomUp, DirectionHybrid} {
				for _, workers := range []int{1, 6} {
					cfg := Config{Workers: workers, Direction: dir}
					if w.tables != nil {
						cfg.Prefetch = 16 // what a raw-device mount sets
					}
					res, err := BFS[uint32](w.g, src, cfg)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", dir, workers, err)
					}
					for v := range want {
						if res.Level[v] != want[v] {
							t.Fatalf("%s workers=%d: level[%d] = %d, want %d",
								dir, workers, v, res.Level[v], want[v])
						}
					}
					for v, lvl := range res.Level {
						if lvl == graph.InfDist || uint32(v) == src {
							continue
						}
						if p := res.Parent[v]; res.Level[p] != lvl-1 {
							t.Fatalf("%s workers=%d: parent[%d]=%d at level %d, child at %d",
								dir, workers, v, p, res.Level[p], lvl)
						}
					}
					// Phases are recorded exactly when the driver ran: always
					// or never when forced, per the rule when chosen.
					if got, want := res.Stats.TopDownPhases+res.Stats.BottomUpPhases, drives(cfg, w.g); (got > 0) != want {
						t.Fatalf("%s: %d phases recorded in stats, drives=%v", dir, got, want)
					}
				}
			}
			assertQuiescent(t, w.tables)
		})
	}
}

// TestDirectionHybridStaysTopDownOnChain pins the β floor behavior: on a
// path graph every frontier is one vertex, so the hybrid controller must
// never pay for a bottom-up scan.
func TestDirectionHybridStaysTopDownOnChain(t *testing.T) {
	b := graph.NewBuilder[uint32](256, false)
	for v := uint32(0); v+1 < 256; v++ {
		b.AddEdge(v, v+1, 1)
	}
	chain, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS[uint32](bidiIM(t, chain), 0, Config{Workers: 4, Direction: DirectionHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BottomUpPhases != 0 {
		t.Fatalf("hybrid ran %d bottom-up phases on a chain", res.Stats.BottomUpPhases)
	}
	if res.Stats.DirectionSwitches != 0 {
		t.Fatalf("hybrid switched direction %d times on a chain", res.Stats.DirectionSwitches)
	}
	if res.Stats.PeakFrontier != 1 {
		t.Fatalf("peak frontier %d on a chain, want 1", res.Stats.PeakFrontier)
	}
}

// scratchCounter is a semi-external graph that notes which per-worker
// scratches read adjacency through it: one per phase worker that ran.
type scratchCounter struct {
	*sem.Graph[uint32]
	seen sync.Map // *graph.Scratch[uint32] -> struct{}
}

func (c *scratchCounter) Neighbors(v uint32, s *graph.Scratch[uint32]) ([]uint32, []graph.Weight, error) {
	c.seen.Store(s, struct{}{})
	return c.Graph.Neighbors(v, s)
}

// TestDirectionTopDownFansOutOnIOBackedStore pins the width of a top-down
// phase on a batching (I/O-backed) back end that announces no windows — a
// cached mount, Config.Prefetch 0. A 64x64 grid's frontiers hold at most 64
// vertices and 128 edges, far below serialPhaseEdges, so by edge count every
// phase would run inline and pay its cache misses one after another; the
// driver must give every ioFanout frontier vertices a worker instead.
func TestDirectionTopDownFansOutOnIOBackedStore(t *testing.T) {
	grid, err := gen.Grid[uint32](64, 64)
	if err != nil {
		t.Fatal(err)
	}
	adj := &scratchCounter{Graph: semMirrorCfg(t, grid, sem.WriteConfig{InEdges: true})}
	res, err := BFS[uint32](adj, 0, Config{Workers: 32, Direction: DirectionHybrid})
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.SerialBFS[uint32](grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], want[v])
		}
	}
	if res.Stats.BottomUpPhases != 0 || res.Stats.PeakFrontier != 64 {
		t.Fatalf("stats %+v: want a top-down-only run peaking at 64 frontier vertices", res.Stats)
	}
	workers := 0
	adj.seen.Range(func(_, _ any) bool { workers++; return true })
	if want := 64 / ioFanout; workers != want {
		t.Fatalf("%d phase workers read adjacency, want %d (peak frontier 64 / ioFanout %d)", workers, want, ioFanout)
	}
}

// TestBottomUpWidthFollowsTheDevice pins the width of a bottom-up phase on a
// batching (I/O-backed) back end: at least min(ioFanout, Workers) workers
// scan the id space, however few edges are left unexplored, so that their
// in-edge spans are in the device together. The graph has fewer edges than
// serialPhaseEdges, so in memory every phase runs inline, and 128 vertices,
// so no top-down frontier on the device is more than 128/ioFanout = 8
// workers wide: a phase ioFanout wide can only be bottom-up.
func TestBottomUpWidthFollowsTheDevice(t *testing.T) {
	g, err := gen.RMATUndirected[uint32](7, 4, gen.RMATA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() > serialPhaseEdges {
		t.Fatalf("%d edges: every in-memory phase must fit serialPhaseEdges (%d)", g.NumEdges(), serialPhaseEdges)
	}
	raw, _ := rawMirror(t, g, sem.WriteConfig{Symmetric: true})
	for _, workers := range []int{128, 4} {
		cfg := Config{Workers: workers, Direction: DirectionHybrid}
		want, err := BFS[uint32](g, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.BottomUpPhases == 0 {
			t.Fatalf("workers %d: no bottom-up phase ran in memory", workers)
		}
		if w := len(want.Stats.WorkerVisits); w != 1 {
			t.Fatalf("workers %d: in memory the widest phase had %d workers, want phaseWorkers's 1", workers, w)
		}
		for _, dev := range []struct {
			name string
			g    graph.Adjacency[uint32]
		}{
			{"bare table", semMirrorCfg(t, g, sem.WriteConfig{Symmetric: true})},
			{"raw mount", raw},
		} {
			res, err := BFS[uint32](dev.g, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.BottomUpPhases != want.Stats.BottomUpPhases {
				t.Fatalf("workers %d, %s: %d bottom-up phases, %d in memory", workers, dev.name, res.Stats.BottomUpPhases, want.Stats.BottomUpPhases)
			}
			if w := len(res.Stats.WorkerVisits); w < min(ioFanout, workers) {
				t.Errorf("workers %d, %s: the widest phase had %d workers, want at least %d", workers, dev.name, w, min(ioFanout, workers))
			}
			for v := range want.Level {
				if res.Level[v] != want.Level[v] {
					t.Fatalf("workers %d, %s: level[%d] = %d, %d in memory", workers, dev.name, v, res.Level[v], want.Level[v])
				}
			}
		}
	}
}

// TestDirectionRequiresInEdges pins the capability contract: a non-top-down
// direction against a back end without reverse adjacency fails with
// ErrNoInEdges (and the CLI maps that to a usage error).
func TestDirectionRequiresInEdges(t *testing.T) {
	g := randomDigraph(t, 100, 400, false, 3)
	for _, dir := range []Direction{DirectionBottomUp, DirectionHybrid} {
		_, err := BFS[uint32](g, 0, Config{Workers: 4, Direction: dir})
		if err == nil {
			t.Fatalf("%s on a plain CSR succeeded, want ErrNoInEdges", dir)
		}
		if !errors.Is(err, ErrNoInEdges) {
			t.Fatalf("%s: error %v does not wrap ErrNoInEdges", dir, err)
		}
	}
	// A sem store without an in-edge section declines dynamically.
	sg := semMirrorCfg(t, g, sem.WriteConfig{})
	if _, err := BFS[uint32](sg, 0, Config{Workers: 4, Direction: DirectionHybrid}); err == nil || !errors.Is(err, ErrNoInEdges) {
		t.Fatalf("sem store without in-edges: got %v, want ErrNoInEdges", err)
	}
}

// overlapStore serves a serialized graph from memory and records the most
// reads inside it at once. Once armed, a read past the first free ones waits
// until a second one is inside too, or until expired closes: that timer is
// the verdict of a run whose reads are serial, never a synchronisation.
type overlapStore struct {
	data            []byte
	armed           atomic.Bool
	free            atomic.Int64
	inside, peak    atomic.Int64
	once            sync.Once
	paired, expired chan struct{}
}

func newOverlapStore(data []byte) *overlapStore {
	return &overlapStore{data: data, paired: make(chan struct{}), expired: make(chan struct{})}
}

func (s *overlapStore) Size() int64 { return int64(len(s.data)) }

func (s *overlapStore) ReadAt(p []byte, off int64) (int, error) {
	n := s.inside.Add(1)
	defer s.inside.Add(-1)
	for peak := s.peak.Load(); n > peak && !s.peak.CompareAndSwap(peak, n); peak = s.peak.Load() {
	}
	if n >= 2 {
		s.once.Do(func() { close(s.paired) })
	}
	if s.armed.Load() && s.free.Add(-1) < 0 {
		select {
		case <-s.paired:
		case <-s.expired:
		}
	}
	return bytes.NewReader(s.data).ReadAt(p, off)
}

// TestDriverReadsOverlapBehindCache pins that a phase worker of the
// direction-switching driver has its reads in the device together behind a
// block cache (the mount's recipe: 4 KiB blocks, readahead 8), one worker
// and no pop sweep configured:
//
//   - top-down: the source's four children sit 48 KB apart on the device,
//     more than a readahead span and the sweep's coalescing gap, so their
//     misses are separate reads, and the one Request of them puts them in
//     the device at once;
//   - top-down over a bare store: the same graph opened on the store itself,
//     no cache and no prefetcher, where Request reads each extent alone, but
//     all four at once;
//   - bottom-up: the two unvisited vertices' in-lists are two scan spans 40
//     KB apart, and the scan requests the second while it decodes the first.
//
// Reading one miss at a time, each phase reaches one read in flight.
func TestDriverReadsOverlapBehindCache(t *testing.T) {
	// Top-down: source 8 -> {0, 2, 4, 6} -> 9; each odd vertex below 8 holds
	// 12 000 out-edges (48 KB) to vertices nobody reaches.
	const heavy = 12_000
	td := graph.NewBuilder[uint32](10+heavy, false)
	for _, v := range []uint32{0, 2, 4, 6} {
		td.AddEdge(8, v, 1)
		td.AddEdge(v, 9, 1)
		for k := uint32(0); k < heavy; k++ {
			td.AddEdge(v+1, 10+k, 1)
		}
	}
	// Bottom-up: source 1 -> {0, 2}; 20 000 vertices point at 0 and 10 000
	// at 1, so 0's in-list (80 KB) is a span of its own and 1's, settled,
	// is the gap to 2's.
	bu := graph.NewBuilder[uint32](3+30_000, false)
	bu.AddEdge(1, 0, 1)
	bu.AddEdge(1, 2, 1)
	for k := uint32(0); k < 30_000; k++ {
		bu.AddEdge(3+k, k/20_000, 1)
	}
	tdg, err := td.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	bug, err := bu.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.CSR[uint32]
		src  uint32
		dir  Direction
		bare bool
	}{
		{"top-down", tdg, 8, DirectionHybrid, false},
		{"top-down over a bare store", tdg, 8, DirectionHybrid, true},
		{"bottom-up", bug, 1, DirectionBottomUp, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			var buf bytes.Buffer
			if err := sem.Write(&buf, g, sem.WriteConfig{InEdges: true}); err != nil {
				t.Fatal(err)
			}
			store := newOverlapStore(buf.Bytes())
			var under sem.Store = store
			if !tc.bare {
				cache, err := sem.NewCachedStoreRA(store, 4096, store.Size(), 8)
				if err != nil {
					t.Fatal(err)
				}
				under = cache
			}
			sg, err := sem.Open[uint32](under)
			if err != nil {
				t.Fatal(err)
			}
			// The source's own list is read alone: warm it before arming, or,
			// with no cache to keep it, let its read through ungated.
			if tc.bare {
				store.free.Store(1)
			} else if _, _, err := sg.Neighbors(tc.src, &graph.Scratch[uint32]{}); err != nil {
				t.Fatal(err)
			}
			store.peak.Store(0)
			store.armed.Store(true)
			timer := time.AfterFunc(5*time.Second, func() { close(store.expired) })
			defer timer.Stop()
			res, err := BFS[uint32](sg, tc.src, Config{Workers: 1, Direction: tc.dir})
			if err != nil {
				t.Fatal(err)
			}
			want, err := baseline.SerialBFS[uint32](g, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if res.Level[v] != want[v] {
					t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], want[v])
				}
			}
			if tc.dir == DirectionHybrid && res.Stats.BottomUpPhases != 0 {
				t.Fatalf("stats %+v: want a top-down-only run", res.Stats)
			}
			if peak := store.peak.Load(); peak < 2 {
				t.Fatalf("at most %d device read in flight at once: the phase read its misses one at a time", peak)
			}
		})
	}
}

// TestBFSDefaultThresholdsSwitchBottomUp pins the zero Config's switch
// thresholds: a library caller that leaves Alpha and Beta zero gets the
// defaults from normalize, so a BFS on a scale-free undirected graph goes
// bottom-up for its wide middle levels. Without the Alpha default the driver
// never leaves top-down, and every level is still right.
func TestBFSDefaultThresholdsSwitchBottomUp(t *testing.T) {
	g, err := gen.RMATUndirected[uint32](12, 16, gen.RMATA, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS[uint32](g, 0, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BottomUpPhases == 0 {
		t.Fatalf("no bottom-up phase (%d top-down): the default switch thresholds are not in force", res.Stats.TopDownPhases)
	}
}
