package sem

// Tests for the cache's traversal-state counters: the counters themselves,
// their effect on eviction, and — the contract a fed mount keeps — bit-identical
// traversal results whether or not the cache is fed, across kernels, formats,
// and sharding. The concurrency tests run under -race in CI alongside the
// existing sem concurrency suite.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ssd"
)

func TestStatePolicyCounters(t *testing.T) {
	p := &pendingBlocks{count: make([]atomic.Int32, 4)}
	if p.score(2) != 0 || p.pinned.Load() != 0 {
		t.Fatal("fresh policy not zeroed")
	}
	p.queued(2)
	p.queued(2)
	p.queued(3)
	if p.score(2) != 2 || p.score(3) != 1 {
		t.Fatalf("scores = %d,%d; want 2,1", p.score(2), p.score(3))
	}
	if p.pinned.Load() != 2 || p.pinnedHW.Load() != 2 {
		t.Fatalf("pinned=%d hw=%d; want 2,2", p.pinned.Load(), p.pinnedHW.Load())
	}
	p.settled(2)
	p.settled(2)
	p.settled(3)
	if p.score(2) != 0 || p.score(3) != 0 || p.pinned.Load() != 0 {
		t.Fatal("settle did not drain counters")
	}
	if p.pinnedHW.Load() != 2 {
		t.Fatalf("high-water lost: %d", p.pinnedHW.Load())
	}
	// Saturating decrement: an aborted traversal can settle more than it
	// queued; the counter must not go negative and poison the next run.
	p.settled(1)
	p.settled(1)
	if p.score(1) != 0 {
		t.Fatalf("over-settle produced score %d", p.score(1))
	}
	p.queued(1)
	if p.score(1) != 1 {
		t.Fatalf("counter poisoned after over-settle: %d", p.score(1))
	}
	// Out-of-range blocks are ignored, not a panic: shard maps can route a
	// vertex of another shard through a member's settle sink.
	p.queued(-1)
	p.queued(99)
	p.settled(99)
	if p.score(99) != 0 {
		t.Fatal("out-of-range score")
	}
}

// TestStatePolicyRace hammers one policy from many goroutines mixing queue,
// settle, and score traffic — the exact shape of engine workers feeding settle
// hooks while cache shards read scores during eviction.
func TestStatePolicyRace(t *testing.T) {
	p := &pendingBlocks{count: make([]atomic.Int32, 32)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := int64((w*31 + i) % 32)
				p.queued(b)
				p.score((b + 7) % 32)
				p.settled(b)
			}
		}(w)
	}
	wg.Wait()
	for b := int64(0); b < 32; b++ {
		if p.score(b) != 0 {
			t.Fatalf("block %d ended with score %d, want 0", b, p.score(b))
		}
	}
	if p.pinned.Load() != 0 {
		t.Fatalf("pinned gauge ended at %d", p.pinned.Load())
	}
	if hw := p.pinnedHW.Load(); hw < 1 || hw > 32 {
		t.Fatalf("high-water %d out of range", hw)
	}
}

// TestStateEvictionPrefersSettled checks the eviction contract directly: with the cache over capacity, blocks whose settle counters are
// positive survive while settled blocks at equal recency are evicted.
func TestStateEvictionPrefersSettled(t *testing.T) {
	back := &ssd.MemBacking{Data: make([]byte, 64*512)}
	// One shard, 8-block budget, no readahead: eviction decisions are exact.
	cache, err := NewCachedStore(fastDevice(back), 512, 8*512)
	if err != nil {
		t.Fatal(err)
	}
	sp := &cache.pending
	buf := make([]byte, 512)
	readBlock := func(id int64) {
		t.Helper()
		if _, err := cache.ReadAt(buf, id*512); err != nil {
			t.Fatal(err)
		}
	}
	// Pin block 0 (oldest), then stream enough blocks through to force
	// evictions. LRU order alone would evict block 0 first.
	sp.queued(0)
	readBlock(0)
	for id := int64(1); id < 12; id++ {
		readBlock(id)
	}
	if !cache.residentRange(0, 512) {
		t.Fatal("pinned block 0 was evicted")
	}
	if cache.residentRange(1*512, 512) {
		t.Fatal("settled block 1 survived eviction pressure that should have taken it")
	}
	sp.settled(0)
	for id := int64(12); id < 24; id++ {
		readBlock(id)
	}
	if cache.residentRange(0, 512) {
		t.Fatal("block 0 still resident after settling under continued pressure")
	}
}

func TestCachedStoreTouchAndResidentRange(t *testing.T) {
	back := &ssd.MemBacking{Data: make([]byte, 64*512)}
	cache, err := NewCachedStore(fastDevice(back), 512, 4*512)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for id := int64(0); id < 4; id++ {
		if _, err := cache.ReadAt(buf, id*512); err != nil {
			t.Fatal(err)
		}
	}
	if !cache.residentRange(0, 4*512) {
		t.Fatal("freshly read range not resident")
	}
	if cache.residentRange(0, 5*512) {
		t.Fatal("range including an unread block reported resident")
	}
	// touch must refresh recency: re-touching block 0 right before an
	// eviction-forcing read should sacrifice block 1 instead.
	cache.touch(0)
	if _, err := cache.ReadAt(buf, 4*512); err != nil {
		t.Fatal(err)
	}
	if !cache.residentRange(0, 512) {
		t.Fatal("touched block evicted")
	}
	if cache.residentRange(1*512, 512) {
		t.Fatal("untouched LRU block survived")
	}
	cache.touch(999999) // out of range: must be a no-op, not a panic
}

// statePair mounts g twice on fast devices — once unfed, once feeding its
// cache — with prefetch enabled, returning the two adjacency views.
func statePair(t testing.TB, g *graph.CSR[uint32], compressed bool) (lru, state *Graph[uint32]) {
	t.Helper()
	mount := func(stateAware bool) *Graph[uint32] {
		var buf bytes.Buffer
		if err := Write(&buf, g, WriteConfig{Compress: compressed}); err != nil {
			t.Fatal(err)
		}
		dev := fastDevice(&ssd.MemBacking{Data: buf.Bytes()})
		cache, err := NewCachedStoreRA(dev, 512, int64(buf.Len())/4, 4)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := Open[uint32](cache)
		if err != nil {
			t.Fatal(err)
		}
		if stateAware {
			if !sg.EnableStateCache() {
				t.Fatal("EnableStateCache refused a cached mount")
			}
		}
		sg.EnablePrefetch(PrefetchConfig{MaxGap: 1024})
		return sg
	}
	return mount(false), mount(true)
}

// TestPolicyEquivalence is the feed's contract: it changes device traffic,
// never results. BFS, SSSP, and CC results on a fed mount must equal the unfed
// (exact LRU) mount's and the in-memory baseline's, raw and compressed — and
// so must the raw-device mount's, whose zero-budget table is left holding no
// block and nothing in flight.
func TestPolicyEquivalence(t *testing.T) {
	base, err := gen.RMATUndirected[uint32](9, 8, gen.RMATB, 17)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := gen.UniformWeights(base, 29)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 8, Prefetch: 16, SemiSort: true}
	src := uint32(1)
	for _, compressed := range []bool{false, true} {
		lru, state := statePair(t, weighted, compressed)
		name := map[bool]string{false: "raw", true: "compressed"}[compressed]
		var buf bytes.Buffer
		if err := Write(&buf, weighted, WriteConfig{Compress: compressed}); err != nil {
			t.Fatal(err)
		}
		device, err := Open[uint32](fastDevice(&ssd.MemBacking{Data: buf.Bytes()}))
		if err != nil {
			t.Fatal(err)
		}
		device.EnablePrefetch(PrefetchConfig{MaxGap: DefaultPrefetchGap})

		imBFS, err := core.BFS[uint32](weighted, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lruBFS, err := core.BFS[uint32](lru, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stBFS, err := core.BFS[uint32](state, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devBFS, err := core.BFS[uint32](device, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range imBFS.Level {
			if lruBFS.Level[v] != imBFS.Level[v] || stBFS.Level[v] != imBFS.Level[v] || devBFS.Level[v] != imBFS.Level[v] {
				t.Fatalf("%s BFS level[%d]: im=%d lru=%d state=%d device=%d",
					name, v, imBFS.Level[v], lruBFS.Level[v], stBFS.Level[v], devBFS.Level[v])
			}
		}

		imSSSP, err := core.SSSP[uint32](weighted, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stSSSP, err := core.SSSP[uint32](state, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devSSSP, err := core.SSSP[uint32](device, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range imSSSP.Dist {
			if stSSSP.Dist[v] != imSSSP.Dist[v] || devSSSP.Dist[v] != imSSSP.Dist[v] {
				t.Fatalf("%s SSSP dist[%d]: im=%d state=%d device=%d", name, v, imSSSP.Dist[v], stSSSP.Dist[v], devSSSP.Dist[v])
			}
		}

		imCC, err := core.CC[uint32](weighted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stCC, err := core.CC[uint32](state, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devCC, err := core.CC[uint32](device, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range imCC.ID {
			if stCC.ID[v] != imCC.ID[v] || devCC.ID[v] != imCC.ID[v] {
				t.Fatalf("%s CC id[%d]: im=%d state=%d device=%d", name, v, imCC.ID[v], stCC.ID[v], devCC.ID[v])
			}
		}
		assertQuiescent(t, lru.store)
		assertQuiescent(t, state.store)
		assertQuiescent(t, device.table)
		if device.PrefetchStats().Spans == 0 {
			t.Fatalf("%s: the raw-device mount issued no window reads", name)
		}
	}
}

// TestPolicyEquivalenceSharded runs BFS over a sharded mount with every member
// cache fed and checks distances against the in-memory run.
func TestPolicyEquivalenceSharded(t *testing.T) {
	g, err := gen.RMAT[uint32](9, 8, gen.RMATA, 23)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	members := make([]graph.Adjacency[uint32], shards)
	for k := 0; k < shards; k++ {
		data := writeShardBytes(t, g, k, shards, false)
		cache, err := NewCachedStoreRA(fastDevice(&ssd.MemBacking{Data: data}), 512, int64(len(data))/4, 4)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := Open[uint32](cache)
		if err != nil {
			t.Fatal(err)
		}
		if !sg.EnableStateCache() {
			t.Fatal("EnableStateCache refused a cached shard mount")
		}
		sg.EnablePrefetch(PrefetchConfig{MaxGap: 1024})
		members[k] = sg
	}
	sh, err := graph.NewSharded[uint32](members)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 8, Prefetch: 16, SemiSort: true}
	src := uint32(1)
	want, err := core.BFS[uint32](g, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.BFS[uint32](sh, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] {
			t.Fatalf("sharded state BFS level[%d] = %d, want %d", v, got.Level[v], want.Level[v])
		}
	}
}

// TestConcurrentStateTraversals exercises the whole state-aware path — settle
// hooks, the block table's shared reads, residency bitset, score-driven eviction — from
// many concurrent traversals over one shared mount. Run under -race in CI.
func TestConcurrentStateTraversals(t *testing.T) {
	g, err := gen.RMAT[uint32](9, 8, gen.RMATA, 31)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	cache, err := NewCachedStoreRA(fastDevice(&ssd.MemBacking{Data: buf.Bytes()}), 512, int64(buf.Len())/4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](cache)
	if err != nil {
		t.Fatal(err)
	}
	sg.EnableStateCache()
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 1024})
	cfg := core.Config{Workers: 8, Prefetch: 16, SemiSort: true}

	const traversals = 6
	want := make([]*core.BFSResult[uint32], traversals)
	for i := range want {
		var err error
		if want[i], err = core.BFS[uint32](g, uint32(i*5), cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, traversals)
	for i := 0; i < traversals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := core.BFS[uint32](sg, uint32(i*5), cfg)
			if err != nil {
				errs <- err
				return
			}
			for v := range want[i].Level {
				if res.Level[v] != want[i].Level[v] {
					errs <- fmt.Errorf("traversal %d: level[%d] = %d, want %d",
						i, v, res.Level[v], want[i].Level[v])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sk := sg.PrefetchStats(); sk.Spans == 0 {
		t.Error("prefetcher issued no spans; test exercised nothing")
	}
	assertQuiescent(t, cache)
}

// failAfter serves a fixed number of adjacency reads from the embedded graph
// and then fails, aborting the traversal from inside a visit. Embedding keeps
// the graph's NeighborsBatch and SettleSink, so the engine still windows its
// pops and still feeds the cache.
type failAfter struct {
	*Graph[uint32]
	left atomic.Int64
}

func (f *failAfter) Neighbors(v uint32, s *graph.Scratch[uint32]) ([]uint32, []graph.Weight, error) {
	if f.left.Add(-1) < 0 {
		return nil, nil, errInjected
	}
	return f.Graph.Neighbors(v, s)
}

var errInjected = errors.New("injected storage failure")

// TestAbortedTraversalUnpinsStatePolicy aborts a few hundred 128-worker BFS
// runs on one fed mount, each at a different depth and alternately with and
// without a pop window, and checks after every one that the cache's counters
// are where the traversal found them: every pending-visitor count back at
// zero, no block left pinned on a mount that outlives its queries. With 128
// workers some visitor is usually in flight between an outbox and a queue
// whose owner has already exited when the abort lands; a drain each worker
// ran on its way out stranded those (about one aborted run in a hundred).
func TestAbortedTraversalUnpinsStatePolicy(t *testing.T) {
	g, err := gen.RMATUndirected[uint32](12, 8, gen.RMATA, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, fed := statePair(t, g, false)
	sp := &fed.cache.pending
	for i := 0; i < 400; i++ {
		adj := &failAfter{Graph: fed}
		// Past the first few windows, and not a multiple of the window, so the
		// failure lands inside one.
		adj.left.Store(int64(37 + 61*(i%40)))
		// The abort drain is the asynchronous engine's: force it (this
		// undirected graph would otherwise take the phase driver).
		_, err = core.BFS[uint32](adj, uint32(1+i%7), core.Config{Workers: 128, SemiSort: true, Prefetch: 16 * (i % 2), Direction: core.DirectionTopDown})
		if !errors.Is(err, errInjected) {
			t.Fatalf("abort %d: err = %v, want the injected failure", i, err)
		}
		if n := sp.pinned.Load(); n != 0 {
			t.Fatalf("abort %d: %d blocks still pinned after the aborted traversal", i, n)
		}
		for b := range sp.count {
			if n := sp.count[b].Load(); n != 0 {
				t.Fatalf("abort %d: block %d: pending = %d after the aborted traversal", i, b, n)
			}
		}
	}
	if sp.pinnedHW.Load() == 0 {
		t.Fatal("no traversal ever pinned a block; nothing was tested")
	}
}
