package sem

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ssd"
)

type sizelessStore struct{}

func (sizelessStore) ReadAt(p []byte, off int64) (int, error) { return len(p), nil }

func seqBacking(n int) *ssd.MemBacking {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return &ssd.MemBacking{Data: data}
}

func TestCachedStoreValidation(t *testing.T) {
	d := fastDevice(seqBacking(64))
	if _, err := NewCachedStore(d, 0, 1024); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := NewCachedStore(sizelessStore{}, 16, 1024); err == nil {
		t.Fatal("sizeless store accepted")
	}
}

func TestCachedStoreReadsMatchDevice(t *testing.T) {
	back := seqBacking(4096)
	d := fastDevice(back)
	c, err := NewCachedStore(d, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 500; i++ {
		off := r.Int64N(4000)
		n := 1 + r.IntN(90) // spans up to 2 blocks
		if off+int64(n) > 4096 {
			n = int(4096 - off)
		}
		got := make([]byte, n)
		if _, err := c.ReadAt(got, off); err != nil {
			t.Fatalf("read off=%d n=%d: %v", off, n, err)
		}
		if !bytes.Equal(got, back.Data[off:off+int64(n)]) {
			t.Fatalf("mismatch at off=%d n=%d", off, n)
		}
	}
}

func TestCachedStoreHitsReduceDeviceReads(t *testing.T) {
	back := seqBacking(4096)
	d := fastDevice(back)
	c, err := NewCachedStore(d, 256, 4096) // whole device fits
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for i := 0; i < 100; i++ {
		if _, err := c.ReadAt(buf, int64(i%4)*256); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.Stats()
	if misses != 4 {
		t.Fatalf("misses = %d, want 4 distinct blocks", misses)
	}
	if hits != 96 {
		t.Fatalf("hits = %d, want 96", hits)
	}
	if got := d.Stats().Reads; got != 4 {
		t.Fatalf("device reads = %d, want 4", got)
	}
}

func TestCachedStoreEvicts(t *testing.T) {
	back := seqBacking(1 << 16)
	d := fastDevice(back)
	// Capacity of 16 blocks over 16 shards: 1 block per shard.
	c, err := NewCachedStore(d, 64, 16*64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	// Touch many distinct blocks; cache must stay bounded and correct.
	for i := 0; i < 512; i++ {
		off := int64(i) * 64
		if _, err := c.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, back.Data[off:off+8]) {
			t.Fatalf("mismatch at block %d", i)
		}
	}
	for s := range c.shards {
		if got := c.shards[s].lru.Len(); got > c.shards[s].capacity {
			t.Fatalf("shard %d holds %d blocks, cap %d", s, got, c.shards[s].capacity)
		}
	}
}

func TestCachedStoreOutOfRange(t *testing.T) {
	c, err := NewCachedStore(fastDevice(seqBacking(100)), 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(make([]byte, 8), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := c.ReadAt(make([]byte, 8), 98); err == nil {
		t.Fatal("read past end accepted")
	}
	if _, err := c.ReadAt(make([]byte, 8), 500); err == nil {
		t.Fatal("read far past end accepted")
	}
}

func TestCachedStoreConcurrentReaders(t *testing.T) {
	back := seqBacking(1 << 15)
	d := fastDevice(back)
	c, err := NewCachedStore(d, 128, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, 0))
			buf := make([]byte, 64)
			for i := 0; i < 300; i++ {
				off := r.Int64N(1<<15 - 64)
				if _, err := c.ReadAt(buf, off); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(buf, back.Data[off:off+64]) {
					t.Errorf("mismatch at %d", off)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestSEMTraversalThroughCacheMatches(t *testing.T) {
	g := buildGraph(t, 300, 3000, false, 31)
	back := writeToMem(t, g)
	dev := fastDevice(back)
	c, err := NewCachedStore(dev, 4096, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BFS[uint32](sg, 0, core.Config{Workers: 8, SemiSort: true})
	if err != nil {
		t.Fatal(err)
	}
	imRes, err := core.BFS[uint32](g, 0, core.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Level {
		if res.Level[v] != imRes.Level[v] {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], imRes.Level[v])
		}
	}
	if h, m := c.Stats(); h == 0 || m == 0 {
		t.Fatalf("cache stats: hits=%d misses=%d (expected both nonzero)", h, m)
	}
}

func TestSemiSortImprovesCacheHitRate(t *testing.T) {
	// The paper's §IV-C claim: semi-sorting visitor order by vertex id
	// increases access locality on the storage device. Measure device reads
	// with and without the secondary sort key under a small cache.
	g := buildGraph(t, 4096, 32768, false, 33)
	back := writeToMem(t, g)

	deviceReads := func(semiSort bool) uint64 {
		dev := ssd.New(ssd.Profile{Name: "fast", Channels: 8, ReadLatency: time.Nanosecond}, back)
		c, err := NewCachedStore(dev, 4096, 16*4096) // small cache forces locality to matter
		if err != nil {
			t.Fatal(err)
		}
		sg, err := Open[uint32](c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.BFS[uint32](sg, 0, core.Config{Workers: 1, SemiSort: semiSort}); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().Reads
	}
	sorted := deviceReads(true)
	unsorted := deviceReads(false)
	if sorted > unsorted {
		t.Fatalf("semi-sort increased device reads: %d > %d", sorted, unsorted)
	}
}

func TestCachedStoreSingleflight(t *testing.T) {
	// Many goroutines cold-missing the same block must produce exactly one
	// device read.
	back := seqBacking(8192)
	dev := ssd.New(ssd.Profile{Name: "slow", Channels: 4, ReadLatency: 20 * time.Millisecond}, back)
	c, err := NewCachedStore(dev, 4096, 16*4096)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16)
			if _, err := c.ReadAt(buf, 100); err != nil {
				t.Errorf("read: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := dev.Stats().Reads; got != 1 {
		t.Fatalf("device reads = %d, want 1 (singleflight)", got)
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 31 {
		t.Fatalf("hits=%d misses=%d, want 31/1", hits, misses)
	}
}

// TestCachedStoreFailedFetchRetries fails a four-block fetch that has a reader
// waiting on a block other than its first. Both readers get the error, the
// span's blocks leave the in-flight table (a failed block must not be cached
// as poisoned), and each can be fetched again.
func TestCachedStoreFailedFetchRetries(t *testing.T) {
	dev := newGatedStore(8, 0)
	c, err := NewCachedStoreRA(dev, gatedBlock, 8*gatedBlock, 4)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	read := func(b int64) {
		_, err := c.ReadAt(make([]byte, 8), b*gatedBlock)
		errs <- err
	}
	go read(0)
	waitFor(t, "the fetch to reach the device", func() bool { n, _ := dev.counts(); return n == 1 })
	go read(2)
	waitFor(t, "the reader of block 2 to wait", func() bool { return c.IOStats().Waits == 1 })
	dev.fail.Store(true)
	dev.open()
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Error("a reader of the failed span got no error")
		}
	}
	if c.residentRange(0, 1) || c.residentRange(2*gatedBlock, 1) {
		t.Error("a failed block is still reported resident")
	}
	assertQuiescent(t, c)

	dev.fail.Store(false)
	buf := make([]byte, 8)
	for _, b := range []int64{2, 0} {
		if _, err := c.ReadAt(buf, b*gatedBlock); err != nil {
			t.Fatalf("block %d after the failure: %v", b, err)
		}
		if !bytes.Equal(buf, dev.data[b*gatedBlock:b*gatedBlock+8]) {
			t.Fatalf("block %d after the failure: wrong bytes", b)
		}
	}
	assertQuiescent(t, c)
}

func TestConcurrentTraversalsShareCache(t *testing.T) {
	// Two traversals running simultaneously over one CachedStore must both
	// produce correct results (the store is shared, per-traversal state is
	// not).
	g := buildGraph(t, 500, 5000, false, 41)
	back := writeToMem(t, g)
	dev := fastDevice(back)
	c, err := NewCachedStoreRA(dev, 4096, 32*1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.SerialBFS[uint32](g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for run := 0; run < 4; run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.BFS[uint32](sg, 0, core.Config{Workers: 8, SemiSort: true})
			if err != nil {
				t.Errorf("BFS: %v", err)
				return
			}
			for v := range want {
				if res.Level[v] != want[v] {
					t.Errorf("level[%d] = %d, want %d", v, res.Level[v], want[v])
					return
				}
			}
		}()
	}
	wg.Wait()
	assertQuiescent(t, c)
}

func TestCachedStoreTailBlockClamp(t *testing.T) {
	// A 100-byte store under 64-byte blocks: the final block is 36 bytes.
	// Reads inside the clamped tail succeed byte-exact; reads crossing the
	// end fail rather than returning fabricated bytes.
	back := seqBacking(100)
	c, err := NewCachedStore(fastDevice(back), 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 36)
	if _, err := c.ReadAt(got, 64); err != nil {
		t.Fatalf("tail block read: %v", err)
	}
	if !bytes.Equal(got, back.Data[64:100]) {
		t.Fatal("tail block bytes differ from backing")
	}
	if _, err := c.ReadAt(make([]byte, 4), 96); err != nil {
		t.Fatalf("read ending exactly at store end: %v", err)
	}
	if _, err := c.ReadAt(make([]byte, 5), 96); err == nil {
		t.Fatal("read crossing store end accepted")
	}
}

func TestCachedStoreReadaheadPastEnd(t *testing.T) {
	// Readahead spans are clamped to the store: a miss on the final block
	// with an 8-block readahead must fetch only what exists, in one device
	// operation, and later reads of the prefetched blocks must hit.
	back := seqBacking(100)
	d := fastDevice(back)
	c, err := NewCachedStoreRA(d, 64, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := c.ReadAt(buf, 64); err != nil {
		t.Fatalf("miss on final block: %v", err)
	}
	if got := d.Stats().Reads; got != 1 {
		t.Fatalf("device reads = %d, want 1 clamped span", got)
	}
	// The same miss from block 0 covers both blocks; re-reads are all hits.
	c2, err := NewCachedStoreRA(fastDevice(back), 64, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReadAt(buf, 90); err != nil {
		t.Fatalf("read of readahead-filled tail: %v", err)
	}
	if hits, misses := c2.Stats(); misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (tail served by readahead)", hits, misses)
	}
}

func TestCachedStoreConcurrentColdMisses(t *testing.T) {
	// Many goroutines racing over a cold cache with overlapping block sets:
	// singleflight must bound device reads by the number of distinct blocks,
	// and every byte must still be exact (run under -race in CI).
	const blocks = 8
	back := seqBacking(blocks * 64)
	d := fastDevice(back)
	c, err := NewCachedStore(d, 64, blocks*64*16) // ample: no evictions
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 16)
			for i := 0; i < blocks; i++ {
				off := int64((seed+i)%blocks) * 64
				if _, err := c.ReadAt(buf, off); err != nil {
					t.Errorf("read at %d: %v", off, err)
					return
				}
				if !bytes.Equal(buf, back.Data[off:off+16]) {
					t.Errorf("mismatch at %d", off)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := d.Stats().Reads; got > blocks {
		t.Fatalf("device reads = %d, want <= %d (one per distinct block)", got, blocks)
	}
	assertQuiescent(t, c)
}

func TestSEM64BitTraversal(t *testing.T) {
	b := graph.NewBuilder[uint64](100, false)
	for i := uint64(0); i < 99; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint64](fastDevice(&ssd.MemBacking{Data: buf.Bytes()}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BFS[uint64](sg, 0, core.Config{Workers: 4, SemiSort: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Level[99] != 99 {
		t.Fatalf("level[99] = %d", res.Level[99])
	}
}
