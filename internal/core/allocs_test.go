package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
)

// The traversal allocation tests: a hot path runs once per visit, edge or
// probe, so an allocation there is one per vertex or edge of every traversal.
// Each test runs pooled traversals on an RMAT-A graph of 2^9 vertices and on
// one of 2^13 (16x the edges), and fails when the larger one's traversal
// allocates more than the smaller one's plus a slack. What a traversal may
// allocate is its result arrays and its per-traversal state; an allocation
// per vertex adds 7 680, one per edge several times that.
const (
	allocSmallScale = 9
	allocLargeScale = 13
	allocDegree     = 8
)

// traversalAllocs warms run (the pool's resources, the mount's cache) and
// returns its mean allocations per call.
func traversalAllocs(t *testing.T, run func() error) float64 {
	t.Helper()
	var err error
	call := func() {
		if e := run(); e != nil && err == nil {
			err = e
		}
	}
	call()
	allocs := testing.AllocsPerRun(3, call) // after one more warm-up call
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// assertFlatAllocs fails unless a traversal of the large graph allocates at
// most slack more than one of the small graph.
func assertFlatAllocs(t *testing.T, name string, small, large func() error, slack float64) {
	t.Helper()
	s, l := traversalAllocs(t, small), traversalAllocs(t, large)
	t.Logf("%s: %.0f allocations a traversal on 2^%d vertices, %.0f on 2^%d", name, s, allocSmallScale, l, allocLargeScale)
	if l > s+slack {
		t.Errorf("%s: a traversal allocates %.0f times on 2^%d vertices and %.0f on 2^%d (16x the edges), want at most %.0f more",
			name, s, allocSmallScale, l, allocLargeScale, slack)
	}
}

func allocGraphs(t *testing.T, undirected bool) (small, large *graph.CSR[uint32]) {
	t.Helper()
	build := func(scale int) *graph.CSR[uint32] {
		var g *graph.CSR[uint32]
		var err error
		if undirected {
			g, err = gen.RMATUndirected[uint32](scale, allocDegree, gen.RMATA, 1)
		} else if g, err = gen.RMAT[uint32](scale, allocDegree, gen.RMATA, 1); err == nil {
			g, err = gen.UniformWeights(g, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return build(allocSmallScale), build(allocLargeScale)
}

// residentSEM writes g per cfg and opens it the way a cached mount does, over
// a block cache twice the file's size (nothing is evicted, so once a
// traversal has warmed it every block is resident).
// With shards > 0 it writes a shard set and mounts each member so.
func residentSEM(t *testing.T, g *graph.CSR[uint32], cfg sem.WriteConfig, shards int) graph.Adjacency[uint32] {
	t.Helper()
	if shards == 0 {
		return residentMember(t, g, cfg)
	}
	gs := make([]*sem.Graph[uint32], shards)
	for k := range gs {
		cfg.Shard = &sem.ShardConfig{Shard: k, Shards: shards}
		gs[k] = residentMember(t, g, cfg)
	}
	m, err := sem.MountShards(gs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func residentMember(t *testing.T, g *graph.CSR[uint32], cfg sem.WriteConfig) *sem.Graph[uint32] {
	t.Helper()
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, cfg); err != nil {
		t.Fatal(err)
	}
	c, err := sem.NewCachedStoreRA(bytes.NewReader(buf.Bytes()), 4096, 2*int64(buf.Len())+4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sem.Open[uint32](c)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// TestInMemoryTraversalAllocs covers the in-memory runner loop and the
// relaxation kernel — Engine.run, claim, park, runVisitor, kernelState.visit
// and propose, the outbox and the queues — on a CSR and on a compressed CSR.
// A traversal allocates its result and slot arrays, its engine and its
// runners' goroutines; the slack is the growth of a queue's heap and of the
// CC seeding's outbox buckets.
func TestInMemoryTraversalAllocs(t *testing.T) {
	ctx := context.Background()
	pool := NewEnginePool[uint32](Config{Workers: 8, Direction: DirectionTopDown})
	ws, wl := allocGraphs(t, false)
	us, ul := allocGraphs(t, true)
	for _, tc := range []struct {
		name         string
		small, large graph.Adjacency[uint32]
		run          func(g graph.Adjacency[uint32]) error
	}{
		{"bfs", ws, wl, func(g graph.Adjacency[uint32]) error { _, err := pool.BFS(ctx, g, 0); return err }},
		{"sssp", ws, wl, func(g graph.Adjacency[uint32]) error { _, err := pool.SSSP(ctx, g, 0); return err }},
		{"sssp compressed", compressed(t, ws), compressed(t, wl), func(g graph.Adjacency[uint32]) error { _, err := pool.SSSP(ctx, g, 0); return err }},
		{"cc", us, ul, func(g graph.Adjacency[uint32]) error { _, err := pool.CC(ctx, g); return err }},
	} {
		assertFlatAllocs(t, tc.name,
			func() error { return tc.run(tc.small) },
			func() error { return tc.run(tc.large) }, 16)
	}
}

// TestDeviceTraversalAllocs covers the device loop over a warm, fully
// resident cache — Engine.runParked, runSweep and the parked set's sweep
// buffers, sem.Graph.Request, heldRead, gather and the decode — with the
// cached mount's sweeps of one on raw records, with sweeps
// of 16, whose extents Request merges (coalesce), on compressed blocks, and
// through the shard router of a 3-shard set. No read misses, so no visitor
// parks; a traversal allocates what an in-memory one does, plus each runner's
// Request buffers. The router keeps its members' scratch in the runner's
// Scratch.Prefetch, which the pool keeps between traversals, so the members'
// decode and request buffers grow once, not once a traversal.
func TestDeviceTraversalAllocs(t *testing.T) {
	ctx := context.Background()
	ws, wl := allocGraphs(t, false)
	for _, tc := range []struct {
		name          string
		cfg           sem.WriteConfig
		width, shards int
		slack         float64
	}{
		{"v1 sweeps of 1", sem.WriteConfig{}, 1, 0, 16},
		{"v2 sweeps of 16", sem.WriteConfig{Compress: true}, 16, 0, 16},
		{"v1 3 shards", sem.WriteConfig{}, 1, 3, 16},
	} {
		pool := NewEnginePool[uint32](Config{Workers: 8, Prefetch: tc.width, Direction: DirectionTopDown})
		bfs := func(g graph.Adjacency[uint32]) func() error {
			return func() error { _, err := pool.BFS(ctx, g, 0); return err }
		}
		assertFlatAllocs(t, tc.name, bfs(residentSEM(t, ws, tc.cfg, tc.shards)), bfs(residentSEM(t, wl, tc.cfg, tc.shards)), tc.slack)
	}
}

// TestDriverTraversalAllocs covers the direction-switching BFS driver —
// dirWorker.topDown, probe and bottomUp — in memory (the per-vertex
// InNeighbors scan of a symmetric CSR and of a Bidi pairing, and a grid whose
// thin frontiers keep every phase top-down) and over a warm, fully resident
// cache (topDown's Request slices, ScanInEdges and its coalesced spans) in
// both edge formats. The driver builds its phase workers (their scratch,
// reads, next-frontier lists and the scan buffers ScanInEdges keeps in the
// scratch) per traversal, so a larger graph's traversal grows each a few more
// times: 37–60 more allocations on the RMAT graphs in memory, about 225 on
// the device, 148 on the grid's 144 more levels. The slack is one allocation
// per 16 added vertices.
func TestDriverTraversalAllocs(t *testing.T) {
	ctx := context.Background()
	pool := NewEnginePool[uint32](Config{Workers: 4, Direction: DirectionHybrid})
	us, ul := allocGraphs(t, true)
	ds, dl := allocGraphs(t, false)
	grid := func(rows, cols uint64) graph.Adjacency[uint32] {
		g, err := gen.Grid[uint32](rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		return bidiIM(t, g)
	}
	for _, tc := range []struct {
		name         string
		small, large graph.Adjacency[uint32]
		bottomUp     bool // whether a bottom-up phase runs
	}{
		{"symmetric csr", us, ul, true},
		{"bidi", bidiIM(t, ds), bidiIM(t, dl), true},
		{"bidi grid", grid(16, 32), grid(64, 128), false},
		{"sem v1", residentSEM(t, us, sem.WriteConfig{}, 0), residentSEM(t, ul, sem.WriteConfig{}, 0), true},
		{"sem v2 in-edge section", residentSEM(t, ds, sem.WriteConfig{Compress: true, InEdges: true}, 0),
			residentSEM(t, dl, sem.WriteConfig{Compress: true, InEdges: true}, 0), true},
	} {
		bfs := func(g graph.Adjacency[uint32]) func() error {
			return func() error {
				res, err := pool.BFS(ctx, g, 0)
				if err == nil && (res.Stats.BottomUpPhases > 0) != tc.bottomUp {
					t.Errorf("%s: %d bottom-up phases ran", tc.name, res.Stats.BottomUpPhases)
				}
				return err
			}
		}
		assertFlatAllocs(t, tc.name, bfs(tc.small), bfs(tc.large), (1<<allocLargeScale-1<<allocSmallScale)/16)
	}
}
