package sem

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/invariant"
)

// CachedStore wraps a Store with a fixed-budget block cache. The paper's
// semi-external runs read edge lists through the OS page cache (16 GB of RAM
// against 9-136 GB of graph), and the visitor queues' secondary vertex-id
// sort exists precisely to raise that cache's hit rate by "semi-sorting
// access" (§IV-C). CachedStore makes the same mechanism explicit and
// measurable: device reads happen in aligned blocks, recently used blocks are
// kept under a byte budget, and hit/miss counters expose the locality the
// semi-sort buys.
//
// It is also the one in-flight table of every sem.Graph (see Open), and fetch
// the only place any graph reads a device. A zero-budget table keeps no block:
// it holds one only while it is under I/O, so that its readers share the read.
type CachedStore struct {
	inner     Store
	blockSize int64
	size      int64 // backing size, for tail-block clamping
	maxBlock  int64 // number of device blocks
	readahead int   // blocks fetched per miss (>= 1)
	capBlocks int64 // total block budget across shards; 0 keeps nothing
	shards    []cacheShard
	io        chan struct{} // bounds the asynchronous block fetches (request)
	// async counts the asynchronous fetches requested and not yet done:
	// those on the I/O pool, those queued for a slot on it, and the exact
	// reads (requestExact).
	async atomic.Int64

	// pending counts the queued visitors per block. Only span shaping reads
	// it (ahead); only a graph mounted with EnableStateCache writes it, and
	// while it is all zero every miss fetches the plain readahead span.
	// Eviction is recency order whatever it holds.
	pending pendingBlocks

	hits   atomic.Uint64
	misses atomic.Uint64 // one per fetch: every miss is one device operation

	// The rest of IOStats. flying is the number of blocks under I/O now.
	fetched, waits, evictions atomic.Uint64
	flying, flyingHW          atomic.Int64

	// spans recycles the span buffers of multi-block misses on a budgeted
	// table (*[]byte): there each block is copied out of its span, which is
	// garbage once fetch returns.
	spans sync.Pool
}

// cacheShard holds the filled blocks it is charged for — blocks and lru, at
// most capacity of them — and, apart from those, the blocks under I/O.
type cacheShard struct {
	mu       sync.Mutex
	capacity int // max filled blocks in this shard
	blocks   map[int64]*list.Element
	lru      *list.List // front = most recent; values are *cacheEntry
	// inflight is the table of blocks a fetch has reserved and not yet
	// filled. Like a page locked for I/O, such a block is on no replacement
	// order, so it is never a victim, and it is charged to capacity only when
	// its bytes arrive: an empty placeholder must not push a filled block out.
	// Later readers of the block find it here and wait (singleflight).
	inflight map[int64]*cacheEntry
}

type cacheEntry struct {
	id int64
	// data is the block's bytes; on a zero-budget table its capacity runs on
	// to the end of the fetch, so an extent crossing blocks reads uncopied.
	data []byte
	*flight
	err error
}

// flight is one fetch, shared by its blocks' entries: ready is closed once
// their data and err are set, and land posts it to subs (heldRead.pending).
type flight struct {
	ready chan struct{}
	done  atomic.Bool
	mu    sync.Mutex
	subs  []graph.Completions
}

// land completes the fetch, filled or failed.
func (f *flight) land() {
	f.mu.Lock()
	f.done.Store(true)
	f.mu.Unlock()
	close(f.ready)
	for _, to := range f.subs {
		to.Landed(f.ready)
	}
}

// Sizer is implemented by stores that know their total size (ssd.Device,
// os.File via a wrapper). CachedStore needs it to clamp the final block.
type Sizer interface{ Size() int64 }

// NewCachedStore creates a block cache over inner with the given block size
// and total capacity in bytes, and no readahead. inner must implement Sizer.
func NewCachedStore(inner Store, blockSize int, capacityBytes int64) (*CachedStore, error) {
	return NewCachedStoreRA(inner, blockSize, capacityBytes, 1)
}

// NewCachedStoreRA additionally fetches `readahead` consecutive blocks per
// miss in a single device operation, the way the OS page cache's readahead
// turns the semi-sorted edge sweep into large sequential transfers. One
// operation's latency is charged regardless of span; the extra bytes pay only
// the device's bandwidth term, matching sequential-transfer behaviour.
// capacityBytes bounds the filled blocks; blocks under I/O are extra, at most
// concurrent misses x 4*readahead of them (see IOStats.InflightHW). A budget
// of zero keeps no block at all.
func NewCachedStoreRA(inner Store, blockSize int, capacityBytes int64, readahead int) (*CachedStore, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sem: block size must be positive, got %d", blockSize)
	}
	szr, ok := inner.(Sizer)
	if !ok {
		return nil, fmt.Errorf("sem: cached store requires a store with a known size")
	}
	return newCachedStore(inner, int64(blockSize), capacityBytes, szr.Size(), readahead), nil
}

// newCachedStore builds a table over the first size bytes of inner.
func newCachedStore(inner Store, blockSize, capacityBytes, size int64, readahead int) *CachedStore {
	// Shard the lock only as far as the budget supports: a shard needs a
	// meaningful victim set (>= minShardBlocks) for recency to express a
	// preference. Splitting a small budget 16 ways leaves one block per
	// shard, and every install evicts the only other resident whatever its
	// recency. Large budgets keep the full shard count for lock spreading,
	// and so does a zero budget, which has no victims to choose among.
	const maxShards, minShardBlocks = 16, 32
	totalBlocks := capacityBytes / blockSize
	numShards := int(min(max(totalBlocks/minShardBlocks, 1), maxShards))
	perShard := max(int(totalBlocks)/numShards, 1)
	if capacityBytes <= 0 {
		numShards, perShard = maxShards, 0
	}
	pool := prefetchIOWorkers
	if ch, ok := inner.(interface{ Channels() int }); ok {
		pool = max(pool, ch.Channels())
	}
	c := &CachedStore{
		inner:     inner,
		blockSize: blockSize,
		size:      size,
		maxBlock:  (size + blockSize - 1) / blockSize,
		readahead: max(readahead, 1),
		capBlocks: int64(perShard) * int64(numShards),
		shards:    make([]cacheShard, numShards),
		io:        make(chan struct{}, pool),
	}
	if c.capBlocks > 0 { // nothing steers a table that keeps nothing
		c.pending.count = make([]atomic.Int32, c.maxBlock)
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: perShard,
			blocks:   make(map[int64]*list.Element),
			lru:      list.New(),
			inflight: make(map[int64]*cacheEntry),
		}
	}
	return c
}

// PinnedHW reports the high-water mark of blocks holding queued visitors at
// once (0 on a cache nobody feeds).
func (c *CachedStore) PinnedHW() int64 { return c.pending.pinnedHW.Load() }

// Stats reports cache hits and misses (block granularity). A read that waited
// on a block another reader was fetching counts as a hit; IOStats splits those
// out.
func (c *CachedStore) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// CacheIOStats is the miss path's side of the counters: what the cache asked
// of the device and what it held while asking.
type CacheIOStats struct {
	Fetches   uint64 // device operations issued
	Blocks    uint64 // blocks those operations filled or failed
	Waits     uint64 // reads that waited on a block in flight (hits in Stats)
	Evictions uint64
	// InflightHW is the high-water mark of blocks under I/O at once: memory
	// held beyond the budget, bounded by concurrent misses x the widest span.
	// Inflight is the count now: zero at rest, once every read has landed.
	InflightHW, Inflight int64
}

// Add accumulates other into s for a shard mount's roll-up: counters sum,
// InflightHW takes the larger member.
func (s *CacheIOStats) Add(other CacheIOStats) {
	s.Fetches += other.Fetches
	s.Blocks += other.Blocks
	s.Waits += other.Waits
	s.Evictions += other.Evictions
	s.InflightHW = max(s.InflightHW, other.InflightHW)
	s.Inflight += other.Inflight
}

// IOStats reports the miss-path counters.
func (c *CachedStore) IOStats() CacheIOStats {
	return CacheIOStats{Fetches: c.misses.Load(), Blocks: c.fetched.Load(), Waits: c.waits.Load(),
		Evictions: c.evictions.Load(), InflightHW: c.flyingHW.Load(), Inflight: c.flying.Load()}
}

// Size implements Sizer.
func (c *CachedStore) Size() int64 { return c.size }

func (c *CachedStore) shard(id int64) *cacheShard {
	return &c.shards[uint64(id)%uint64(len(c.shards))]
}

// evictLocked brings the shard back under capacity, dropping filled blocks
// least recently used first. Only the filled blocks are on the list — a block
// under I/O is never picked — and keep, the block just filled, is skipped.
// Caller holds sh.mu.
func (c *CachedStore) evictLocked(sh *cacheShard, keep *list.Element) {
	for el, over := sh.lru.Back(), sh.lru.Len()-sh.capacity; el != nil && over > 0; {
		prev := el.Prev()
		if el != keep {
			sh.lru.Remove(el)
			delete(sh.blocks, el.Value.(*cacheEntry).id)
			c.evictions.Add(1)
			over--
		}
		el = prev
	}
}

// claim appends to held the entry of every block in [lo, hi): a cached
// block's (a hit), that of a block another fetch has under I/O (a wait: the
// reader shares that read — else a cold block would be read once per reader),
// or a new one reserving the block, also returned in owned for the caller to
// hand to fetch. The new entries share one flight.
func (c *CachedStore) claim(held []*cacheEntry, lo, hi int64) (_, owned []*cacheEntry) {
	var f *flight
	var hits, waits uint64
	for id := lo; id < hi; id++ {
		sh := c.shard(id)
		sh.mu.Lock()
		e := sh.inflight[id]
		if el, cached := sh.blocks[id]; cached {
			sh.lru.MoveToFront(el)
			e = el.Value.(*cacheEntry)
			hits++
		} else if e != nil {
			waits++
		} else {
			if f == nil {
				f = &flight{ready: make(chan struct{})}
			}
			e = c.reserveLocked(sh, id, f)
			owned = append(owned, e)
		}
		sh.mu.Unlock()
		held = append(held, e)
	}
	c.hits.Add(hits + waits)
	c.waits.Add(waits)
	return held, owned
}

// reserveLocked takes absent block id into the shard's in-flight table.
// Caller holds sh.mu.
func (c *CachedStore) reserveLocked(sh *cacheShard, id int64, f *flight) *cacheEntry {
	e := &cacheEntry{id: id, flight: f}
	sh.inflight[id] = e
	for n := c.flying.Add(1); ; {
		hw := c.flyingHW.Load()
		if n <= hw || c.flyingHW.CompareAndSwap(hw, n) {
			return e
		}
	}
}

// ahead extends a fetch past the blocks it owns. Each miss fetches up to
// `readahead` consecutive blocks; span shaping then extends the window through
// the contiguous run of blocks with pending visitors. Those blocks are
// guaranteed future reads — the settle counters say queued work targets them
// — so fetching them now converts their upcoming miss operations into hits for
// only the bandwidth term of this one operation. The extension is capped at 4x
// the readahead and at half of the cache's block budget: an uncapped span can
// fill the entire cache from one miss and flush exactly the residency it is
// trying to build (measured as a ~10-20% read regression when the span reaches
// the whole budget). Blocks past the pending run are never fetched beyond the
// readahead window, so a cold start, a settled region, an unfed cache or a
// zero-budget table reads exactly what was asked. A block already cached or
// under I/O stays its holder's.
func (c *CachedStore) ahead(owned []*cacheEntry) []*cacheEntry {
	lo := owned[0].id
	hi := min(lo+int64(c.readahead), c.maxBlock)
	limit := min(lo+min(4*int64(c.readahead), c.capBlocks/2), c.maxBlock)
	for hi < limit && c.pending.has(hi) {
		hi++
	}
	for id := owned[len(owned)-1].id + 1; id < hi; id++ {
		sh := c.shard(id)
		sh.mu.Lock()
		if _, cached := sh.blocks[id]; !cached && sh.inflight[id] == nil {
			owned = append(owned, c.reserveLocked(sh, id, owned[0].flight))
		}
		sh.mu.Unlock()
	}
	return owned
}

// fetch is the only place a table reads its device. Handed reserved blocks it
// reads from the first to the last in one operation, fills or fails each,
// installs the filled ones under the budget (a zero budget installs nothing)
// and lands their flight. Handed none, it reads buf at off for a
// reader that shares it with nobody: a zero-budget table's synchronous read.
func (c *CachedStore) fetch(buf []byte, off int64, owned []*cacheEntry) error {
	c.misses.Add(1)
	if len(owned) == 0 {
		_, err := c.inner.ReadAt(buf, off)
		return err
	}
	c.fetched.Add(uint64(len(owned)))
	// One device operation covers the span; extra blocks pay only the
	// bandwidth term, as with OS readahead.
	lo := owned[0].id
	off = lo * c.blockSize
	n := min((owned[len(owned)-1].id+1)*c.blockSize, c.size) - off
	// Blocks of a budgeted multi-block span are not sub-slices of it, which
	// would keep all of it alive for as long as any one of its blocks stays
	// cached: each gets a backing of its own, so evicting span-mates frees
	// bytes, and the span goes back to the pool.
	copied := c.capBlocks > 0 && len(owned) > 1
	var span *[]byte
	if copied {
		if span, _ = c.spans.Get().(*[]byte); span == nil || int64(cap(*span)) < n {
			span = new([]byte)
			*span = make([]byte, n)
		}
		buf = (*span)[:n]
	} else {
		buf = make([]byte, n)
	}
	_, err := c.inner.ReadAt(buf, off)
	for _, entry := range owned {
		entry.err = err
		if err == nil {
			from := buf[(entry.id-lo)*c.blockSize:]
			n := min(int64(len(from)), c.blockSize)
			if copied {
				entry.data = make([]byte, n)
				copy(entry.data, from)
			} else {
				entry.data = from[:n]
			}
		}
		sh := c.shard(entry.id)
		sh.mu.Lock()
		delete(sh.inflight, entry.id)
		if err == nil && c.capBlocks > 0 { // else gone from the table: a later read refetches
			el := sh.lru.PushFront(entry)
			sh.blocks[entry.id] = el
			c.evictLocked(sh, el)
			if invariant.Enabled && sh.lru.Len() > sh.capacity {
				invariant.Failf("sem cache: shard holds %d filled blocks, capacity %d", sh.lru.Len(), sh.capacity)
			}
		}
		sh.mu.Unlock()
	}
	if span != nil {
		c.spans.Put(span)
	}
	c.flying.Add(-int64(len(owned)))
	owned[0].land()
	return err
}

// request is the asynchronous claim: it appends the entries of blocks [lo, hi)
// to held and hands the blocks it reserved to one fetch on the I/O pool, which
// bounds the table's concurrent asynchronous reads at max(prefetchIOWorkers,
// the device's channels). It reports the bytes that fetch reads, from off; n is
// 0 when every block was cached or under another reader's fetch already.
func (c *CachedStore) request(held []*cacheEntry, lo, hi int64) (_ []*cacheEntry, off, n int64) {
	held, owned := c.claim(held, lo, hi)
	if len(owned) == 0 {
		return held, 0, 0
	}
	owned = c.ahead(owned)
	off = owned[0].id * c.blockSize
	n = min((owned[len(owned)-1].id+1)*c.blockSize, c.size) - off
	c.async.Add(1)
	go func() {
		c.io <- struct{}{}
		_ = c.fetch(nil, 0, owned) // every reader finds the error on its entries
		<-c.io
		c.async.Add(-1)
	}()
	return held, off, n
}

// requestExact is the asynchronous form of the read a zero-budget table gives
// a reader that shares with nobody (read with share false): one fetch of
// exactly the n bytes at off. The entry it returns is in no table; once its
// ready channel is closed, data holds the bytes or err says why there are
// none. The fetch takes no slot of the I/O pool: the store below may share
// reads of its own (a cache the graph cannot see), and a slot held while
// waiting on another reader's read is no device parallelism — on such a
// store a parked SSSP ran 1.5x slower on the pool (EXPERIMENTS.md "A miss
// parks its visitor"). async still counts it, so a reader that heeds full
// keeps these finite too; the BFS driver, which does not, waits for each
// slice's reads before requesting the next, at most Workers×ioFanout in
// flight (core.dirWorker.topDown).
func (c *CachedStore) requestExact(off int64, n int) *cacheEntry {
	e := &cacheEntry{id: -1, data: make([]byte, n), flight: &flight{ready: make(chan struct{})}}
	c.async.Add(1)
	go func() {
		e.err = c.fetch(e.data, off, nil)
		e.land()
		c.async.Add(-1)
	}()
	return e
}

// full reports that the asynchronous fetches outstanding have reached twice
// the I/O pool — a pool's worth on the device and as many queued behind it,
// so a slot that frees is taken at once — or that the blocks under I/O have
// reached the cache's budget, past which what lands evicts what landed
// before its readers came. A reader that can wait on what it has in flight
// should request no more (graph.BatchAdjacency.Request).
func (c *CachedStore) full() bool {
	return c.async.Load() >= 2*int64(cap(c.io)) || (c.capBlocks > 0 && c.flying.Load() >= c.capBlocks)
}

// read returns the n bytes at off. A reader of a zero-budget table with no
// reads in flight to share (share false: a graph without a prefetcher) reads
// them into *buf in one operation. Otherwise it claims the blocks under them
// — on a cache block by block, a miss fetched with its readahead before the
// next block is looked up; on a zero-budget table all at once — fetches the
// ones it reserved, here, and gathers.
func (c *CachedStore) read(off int64, n int, buf *[]byte, share bool) ([]byte, error) {
	if off < 0 {
		return nil, fmt.Errorf("sem: negative read offset %d", off)
	}
	if c.capBlocks == 0 && !share {
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		b := (*buf)[:n]
		return b, c.fetch(b, off, nil)
	}
	if n == 0 {
		return nil, nil
	}
	lo, hi := off/c.blockSize, (off+int64(n)-1)/c.blockSize+1
	if hi > c.maxBlock {
		return nil, fmt.Errorf("sem: cache read beyond device end (block %d)", hi-1)
	}
	step := int64(1)
	if c.capBlocks == 0 {
		step = hi - lo
	}
	var local [4]*cacheEntry
	held := local[:0]
	for id := lo; id < hi; id += step {
		var owned []*cacheEntry
		if held, owned = c.claim(held, id, id+step); len(owned) > 0 {
			_ = c.fetch(nil, 0, c.ahead(owned)) // gather finds the error on the entry
		}
	}
	return gather(held, c.blockSize, off, n, buf)
}

var errPastEnd = errors.New("sem: read past end of device")

// gather returns the n bytes at off from held — the entries of off's block and
// the blocks after it — once their fetches complete: aliasing the first
// block's data when they lie within its capacity, else copied into *buf.
//
//lint:hotpath
func gather(held []*cacheEntry, blockSize, off int64, n int, buf *[]byte) ([]byte, error) {
	first := held[0]
	<-first.ready
	if first.err != nil {
		return nil, first.err
	}
	in := off - first.id*blockSize
	if end := in + int64(n); end <= int64(cap(first.data)) {
		return first.data[in:end], nil
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	out, got := (*buf)[:n], 0
	for _, e := range held {
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		pos := off + int64(got) - e.id*blockSize
		if pos >= int64(len(e.data)) {
			break
		}
		if got += copy(out[got:], e.data[pos:]); got == n {
			return out, nil
		}
	}
	return nil, errPastEnd
}

// ReadAt implements Store, assembling the request from the table's blocks.
func (c *CachedStore) ReadAt(p []byte, off int64) (int, error) {
	b, err := c.read(off, len(p), &p, true)
	if err != nil {
		return 0, err
	}
	return copy(p, b), nil
}
