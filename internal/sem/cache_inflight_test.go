package sem

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedStore is a device whose reads at or past gateFrom block until open()
// is called, so a test decides how many fetches are under I/O at once. It
// counts, per 64-byte block, how often the device was asked for it; the count
// is taken when the read arrives, before it blocks.
type gatedStore struct {
	data     []byte
	gateFrom int64
	fail     atomic.Bool  // reads return an error once released
	bad      atomic.Int64 // a block every read of which fails (-1: none)

	mu      sync.Mutex
	gate    chan struct{}
	entered int   // reads that reached the device
	reads   []int // per block
}

const gatedBlock = 64

func newGatedStore(blocks int, gateFrom int64) *gatedStore {
	return gatedOver(seqBacking(blocks*gatedBlock).Data, gateFrom)
}

// gatedOver gates reads of data at or past gateFrom.
func gatedOver(data []byte, gateFrom int64) *gatedStore {
	g := &gatedStore{
		data:     data,
		gateFrom: gateFrom,
		gate:     make(chan struct{}),
		reads:    make([]int, (len(data)+gatedBlock-1)/gatedBlock),
	}
	g.bad.Store(-1)
	return g
}

var errBadBlock = errors.New("bad block")

func (g *gatedStore) Size() int64 { return int64(len(g.data)) }

func (g *gatedStore) ReadAt(p []byte, off int64) (int, error) {
	g.mu.Lock()
	g.entered++
	for b := off / gatedBlock; b*gatedBlock < off+int64(len(p)); b++ {
		g.reads[b]++
	}
	gate := g.gate
	g.mu.Unlock()
	if off >= g.gateFrom {
		<-gate
	}
	if g.fail.Load() {
		return 0, errors.New("device failure")
	}
	if b := g.bad.Load(); b >= 0 && b*gatedBlock < off+int64(len(p)) && off < (b+1)*gatedBlock {
		return 0, errBadBlock
	}
	return copy(p, g.data[off:]), nil
}

func (g *gatedStore) open() { close(g.gate) }

// counts reports the reads that reached the device and the blocks they asked
// for, both since the store was made.
func (g *gatedStore) counts() (entered, blocks int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, n := range g.reads {
		blocks += n
	}
	return g.entered, blocks
}

// waitFor spins until cond holds. It waits on an event another goroutine is
// certain to produce; the deadline only turns a broken build's hang into a
// failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// assertQuiescent checks a table no reader is inside: nothing under I/O, every
// shard within its budget (a zero-budget table holds no block at all), and
// every cached block backed by bytes of its own. An asynchronous read may
// outlive the traversal that issued it, so it first waits for the in-flight
// count to drain.
func assertQuiescent(t testing.TB, store Store) {
	t.Helper()
	c, ok := store.(*CachedStore)
	if !ok {
		t.Fatalf("assertQuiescent: %T is not a *CachedStore", store)
	}
	for deadline := time.Now().Add(20 * time.Second); c.flying.Load() != 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := c.flying.Load(); n != 0 {
		t.Errorf("%d blocks still counted under I/O", n)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if len(sh.inflight) != 0 {
			t.Errorf("shard %d: %d blocks left in the in-flight table", i, len(sh.inflight))
		}
		if sh.lru.Len() > sh.capacity || sh.lru.Len() != len(sh.blocks) {
			t.Errorf("shard %d: %d on the lru, %d in the map, capacity %d", i, sh.lru.Len(), len(sh.blocks), sh.capacity)
		}
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			if int64(cap(e.data)) > c.blockSize {
				t.Errorf("block %d keeps %d bytes alive, block size %d", e.id, cap(e.data), c.blockSize)
			}
		}
		sh.mu.Unlock()
	}
}

// residentRange reports whether every block covering [off, off+n) is cached or
// already being fetched.
func (c *CachedStore) residentRange(off int64, n int) bool {
	for b := off / c.blockSize; b <= (off+int64(n)-1)/c.blockSize; b++ {
		if b < 0 || b >= c.maxBlock {
			return false
		}
		sh := c.shard(b)
		sh.mu.Lock()
		_, cached := sh.blocks[b]
		flying := sh.inflight[b] != nil
		sh.mu.Unlock()
		if !cached && !flying {
			return false
		}
	}
	return true
}

// inflightSpans runs a test at its own readahead (widen 1) and at four times
// it (widen 4), which the table clamps to half its budget: each miss's span
// then runs on through the blocks after it.
func inflightSpans(t *testing.T, test func(t *testing.T, widen int)) {
	t.Run("lru", func(t *testing.T) { test(t, 1) })
	t.Run("wide-span", func(t *testing.T) { test(t, 4) })
}

// TestInflightBlocksAreNeverVictims misses more distinct blocks at once than
// the cache may hold, with every read stuck in the device. None of the blocks
// under I/O may be evicted (a second wave of readers must find each one in
// the in-flight table and wait, not read it again), and once the reads land
// the cache holds no more than its budget.
func TestInflightBlocksAreNeverVictims(t *testing.T) {
	inflightSpans(t, func(t *testing.T, widen int) {
		const blocks, capBlocks = 16, 4
		dev := newGatedStore(blocks, 0)
		c, err := NewCachedStoreRA(dev, gatedBlock, capBlocks*gatedBlock, widen)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		read := func(b int) {
			defer wg.Done()
			got := make([]byte, 8)
			off := int64(b) * gatedBlock
			if _, err := c.ReadAt(got, off); err != nil {
				t.Errorf("block %d: %v", b, err)
			} else if !bytes.Equal(got, dev.data[off:off+8]) {
				t.Errorf("block %d: wrong bytes", b)
			}
		}
		// Every reader of a wave ends up inside the device or waiting on a
		// block that is (the wide span covers two blocks here).
		settled := func(readers int) func() bool {
			return func() bool {
				entered, _ := dev.counts()
				return entered+int(c.IOStats().Waits) == readers
			}
		}
		for b := 0; b < blocks; b++ {
			wg.Add(1)
			go read(b)
		}
		waitFor(t, "the first wave to block", settled(blocks))
		for b := 0; b < blocks; b++ {
			wg.Add(1)
			go read(b)
		}
		waitFor(t, "the second wave to wait", settled(2*blocks))

		var flying, filled int
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			flying, filled = flying+len(sh.inflight), filled+sh.lru.Len()
			sh.mu.Unlock()
		}
		if flying != blocks || filled != 0 {
			t.Errorf("with the device stuck: %d blocks in flight, %d filled; want %d, 0", flying, filled, blocks)
		}
		if hw := c.IOStats().InflightHW; hw != blocks {
			t.Errorf("in-flight high-water = %d, want %d", hw, blocks)
		}
		if !c.residentRange(0, blocks*gatedBlock) {
			t.Error("a block under I/O is not reported resident")
		}

		dev.open()
		wg.Wait()
		for b, n := range dev.reads {
			if n != 1 {
				t.Errorf("block %d read from the device %d times, want once", b, n)
			}
		}
		io := c.IOStats()
		if io.Blocks != blocks || io.Evictions != blocks-capBlocks {
			t.Errorf("IOStats = %+v, want %d blocks fetched and %d evictions", io, blocks, blocks-capBlocks)
		}
		if hits, misses := c.Stats(); hits+misses != 2*blocks || misses != io.Fetches {
			t.Errorf("hits=%d misses=%d fetches=%d, want %d reads in all and one miss per fetch", hits, misses, io.Fetches, 2*blocks)
		}
		assertQuiescent(t, c)
	})
}

// TestBlocksUnderIODoNotFlushTheCache pins the failure this rewrite removed.
// A set of blocks is read twice; between the passes far more blocks than the
// cache holds (workers x readahead) are missed and stay under I/O. Charged at
// reservation, as before, those placeholders push every filled block out and
// the second pass reads all of its blocks from the device again; charged at
// fill they push out nothing, and the second pass reads only the blocks the
// budget never had room for.
func TestBlocksUnderIODoNotFlushTheCache(t *testing.T) {
	inflightSpans(t, func(t *testing.T, widen int) {
		const (
			capBlocks, readahead = 32, 8
			ids                  = capBlocks + readahead
			coldFrom, workers    = 64, 16
			coldStride           = 4 * readahead // wider than the widest span
			blocks               = coldFrom + workers*coldStride
		)
		dev := newGatedStore(blocks, coldFrom*gatedBlock)
		c, err := NewCachedStoreRA(dev, gatedBlock, capBlocks*gatedBlock, widen*readahead)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		for b := int64(0); b < ids; b++ {
			if _, err := c.ReadAt(buf, b*gatedBlock); err != nil {
				t.Fatal(err)
			}
		}
		var order, missing []int64 // second pass: cached blocks first
		for b := int64(0); b < ids; b++ {
			if c.residentRange(b*gatedBlock, 1) {
				order = append(order, b)
			} else {
				missing = append(missing, b)
			}
		}
		if len(missing) == 0 || len(missing) == ids {
			t.Fatalf("first pass left %d of %d blocks uncached; the test needs some, not all", len(missing), ids)
		}

		var wg sync.WaitGroup
		enteredBefore, _ := dev.counts()
		for w := int64(0); w < workers; w++ {
			wg.Add(1)
			go func(b int64) {
				defer wg.Done()
				if _, err := c.ReadAt(make([]byte, 8), b*gatedBlock); err != nil {
					t.Errorf("cold block %d: %v", b, err)
				}
			}(coldFrom + w*coldStride)
		}
		waitFor(t, "every cold miss to reach the device", func() bool {
			entered, _ := dev.counts()
			return entered-enteredBefore == workers
		})
		_, readBefore := dev.counts()
		if got := c.flying.Load(); got <= capBlocks {
			t.Fatalf("%d blocks under I/O; the test needs more than the budget of %d", got, capBlocks)
		}

		for _, b := range append(order, missing...) {
			if _, err := c.ReadAt(buf, b*gatedBlock); err != nil {
				t.Fatal(err)
			}
		}
		if _, read := dev.counts(); read-readBefore > len(missing) {
			t.Errorf("second pass read %d blocks from the device with %d blocks under I/O; only %d of its %d did not fit",
				read-readBefore, c.flying.Load(), len(missing), ids)
		}
		dev.open()
		wg.Wait()
		if hw := c.IOStats().InflightHW; hw > workers*4*readahead {
			t.Errorf("in-flight high-water %d exceeds workers x 4 x readahead = %d", hw, workers*4*readahead)
		}
		assertQuiescent(t, c)
	})
}
