package sem

// Tests for traversals behind the block cache: eviction ignores the reads
// traversals hold, results are bit-identical to the in-memory run's across
// kernels, formats and sharding, and an aborted or concurrent traversal leaves
// the table quiescent. The concurrency tests run under -race in CI alongside
// the existing sem concurrency suite.

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

// TestEvictionIgnoresPending checks that a pending read does not keep a
// block: a read holds its blocks' entries until its visitor decodes them, so
// a block a parked visitor waits to decode leaves in recency order like any
// other, and the read still finds its bytes.
func TestEvictionIgnoresPending(t *testing.T) {
	data := make([]byte, 64*512)
	for i := range data {
		data[i] = byte(i / 512)
	}
	// One shard, 8-block budget, no readahead: eviction decisions are exact.
	cache, err := NewCachedStore(fastDevice(&ssd.MemBacking{Data: data}), 512, 8*512)
	if err != nil {
		t.Fatal(err)
	}
	held, _, _ := cache.request(nil, 0, 1, 1)
	<-held[0].ready
	buf := make([]byte, 512)
	for id := int64(1); id <= 12; id++ {
		if _, err := cache.ReadAt(buf, id*512); err != nil {
			t.Fatal(err)
		}
	}
	if cache.residentRange(0, 512) {
		t.Fatal("block 0, held by a pending read, survived")
	}
	if !cache.residentRange(5*512, 8*512) {
		t.Fatal("blocks 5-12, the 8 most recent, are not all cached")
	}
	got, err := gather(held, 512, 0, 512, &buf)
	if err != nil || !bytes.Equal(got, data[:512]) {
		t.Fatalf("the pending read lost its bytes with its evicted block: err %v", err)
	}
}

// cachedMount mounts g on a fast device behind a cache of a quarter of its
// bytes, readahead 4 and prefetch enabled.
func cachedMount(t testing.TB, g *graph.CSR[uint32], compressed bool) *Graph[uint32] {
	t.Helper()
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
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 1024})
	return sg
}

// TestPolicyEquivalence is the read paths' contract: they change device
// traffic, never results. BFS, SSSP, and CC results on a cached mount must
// equal the in-memory baseline's, raw and compressed — and so must the
// raw-device mount's — and both tables are left holding nothing in flight,
// the raw one no block at all.
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
		cached := cachedMount(t, weighted, compressed)
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
		stBFS, err := core.BFS[uint32](cached, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devBFS, err := core.BFS[uint32](device, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range imBFS.Level {
			if stBFS.Level[v] != imBFS.Level[v] || devBFS.Level[v] != imBFS.Level[v] {
				t.Fatalf("%s BFS level[%d]: im=%d cached=%d device=%d",
					name, v, imBFS.Level[v], stBFS.Level[v], devBFS.Level[v])
			}
		}

		imSSSP, err := core.SSSP[uint32](weighted, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stSSSP, err := core.SSSP[uint32](cached, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devSSSP, err := core.SSSP[uint32](device, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range imSSSP.Dist {
			if stSSSP.Dist[v] != imSSSP.Dist[v] || devSSSP.Dist[v] != imSSSP.Dist[v] {
				t.Fatalf("%s SSSP dist[%d]: im=%d cached=%d device=%d", name, v, imSSSP.Dist[v], stSSSP.Dist[v], devSSSP.Dist[v])
			}
		}

		imCC, err := core.CC[uint32](weighted, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stCC, err := core.CC[uint32](cached, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devCC, err := core.CC[uint32](device, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range imCC.ID {
			if stCC.ID[v] != imCC.ID[v] || devCC.ID[v] != imCC.ID[v] {
				t.Fatalf("%s CC id[%d]: im=%d cached=%d device=%d", name, v, imCC.ID[v], stCC.ID[v], devCC.ID[v])
			}
		}
		assertQuiescent(t, cached.store)
		assertQuiescent(t, device.table)
		if device.PrefetchStats().Spans == 0 {
			t.Fatalf("%s: the raw-device mount issued no window reads", name)
		}
	}
}

// TestPolicyEquivalenceSharded runs BFS over a sharded mount with a cache
// under every member and checks distances against the in-memory run.
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
			t.Fatalf("sharded cached BFS level[%d] = %d, want %d", v, got.Level[v], want.Level[v])
		}
	}
}

// TestConcurrentStateTraversals exercises the whole cached path — the block
// table's shared reads, readahead spans, eviction — from many concurrent
// traversals over one shared mount. Run under -race in CI.
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
// the graph's Request, so the engine still parks its visitors on reads.
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

// TestAbortedTraversalLeavesCacheQuiescent aborts a hundred 128-worker BFS
// runs on one cached mount, each at a different depth and alternately with
// and without a pop window, and checks after every one that the table is
// quiescent — nothing under I/O, every shard within its budget — on a mount
// that outlives its queries. With 128 workers some visitor is usually in
// flight between an outbox and a queue whose owner has already exited, or
// parked on a read, when the abort lands; Wait's drain finishes those.
func TestAbortedTraversalLeavesCacheQuiescent(t *testing.T) {
	g, err := gen.RMATUndirected[uint32](12, 8, gen.RMATA, 3)
	if err != nil {
		t.Fatal(err)
	}
	cached := cachedMount(t, g, false)
	for i := 0; i < 100; i++ {
		adj := &failAfter{Graph: cached}
		// Past the first few windows, and not a multiple of the window, so the
		// failure lands inside one.
		adj.left.Store(int64(37 + 61*(i%40)))
		// The abort drain is the asynchronous engine's: force it (this
		// undirected graph would otherwise take the phase driver).
		_, err = core.BFS[uint32](adj, uint32(1+i%7), core.Config{Workers: 128, SemiSort: true, Prefetch: 16 * (i % 2), Direction: core.DirectionTopDown})
		if !errors.Is(err, errInjected) {
			t.Fatalf("abort %d: err = %v, want the injected failure", i, err)
		}
		assertQuiescent(t, cached.store)
	}
}
