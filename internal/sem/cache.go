package sem

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

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
type CachedStore struct {
	inner     Store
	blockSize int64
	size      int64 // backing size, for tail-block clamping
	maxBlock  int64 // number of device blocks
	readahead int   // blocks fetched per miss (>= 1)
	capBlocks int64 // total block budget across shards
	shards    []cacheShard

	// pending counts the queued visitors per block. Eviction and span
	// shaping read it; only a graph mounted with EnableStateCache writes it,
	// and while it is all zero the cache is exact LRU with the plain
	// readahead span.
	pending pendingBlocks

	// resident is a bitset over block ids: a set bit means the block is
	// cached (on a shard's lru) or being fetched (in a shard's in-flight
	// table). It gives the recency-touch path a residency answer without
	// taking a shard lock.
	resident []atomic.Uint64

	hits   atomic.Uint64
	misses atomic.Uint64 // one per fetch: every miss is one device operation

	// The rest of IOStats. flying is the number of blocks under I/O now.
	fetched, waits, evictions atomic.Uint64
	flying, flyingHW          atomic.Int64
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
	id    int64
	data  []byte        // the block's own backing, cap <= blockSize
	ready chan struct{} // closed once data/err are set
	err   error
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
// concurrent misses x 4*readahead of them (see IOStats.InflightHW).
func NewCachedStoreRA(inner Store, blockSize int, capacityBytes int64, readahead int) (*CachedStore, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sem: block size must be positive, got %d", blockSize)
	}
	if readahead < 1 {
		readahead = 1
	}
	szr, ok := inner.(Sizer)
	if !ok {
		return nil, fmt.Errorf("sem: cached store requires a store with a known size")
	}
	// Shard the lock only as far as the budget supports: a shard needs a
	// meaningful victim set (>= minShardBlocks) for any replacement order —
	// recency or score — to express a preference. Splitting a small budget 16
	// ways leaves one block per shard, and every install evicts the only
	// other resident whatever the policy says. Large budgets keep the full
	// shard count for lock spreading.
	const maxShards, minShardBlocks = 16, 32
	totalBlocks := capacityBytes / int64(blockSize)
	numShards := int(totalBlocks / minShardBlocks)
	if numShards > maxShards {
		numShards = maxShards
	}
	if numShards < 1 {
		numShards = 1
	}
	perShard := int(totalBlocks) / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &CachedStore{
		inner:     inner,
		blockSize: int64(blockSize),
		size:      szr.Size(),
		readahead: readahead,
		capBlocks: int64(perShard) * int64(numShards),
		shards:    make([]cacheShard, numShards),
	}
	c.maxBlock = (c.size + c.blockSize - 1) / c.blockSize
	c.pending.count = make([]atomic.Int32, c.maxBlock)
	c.resident = make([]atomic.Uint64, (c.maxBlock+63)/64)
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: perShard,
			blocks:   make(map[int64]*list.Element),
			lru:      list.New(),
			inflight: make(map[int64]*cacheEntry),
		}
	}
	return c, nil
}

// queued records a visitor queued for a vertex on block id. A block gaining
// its first pending visitor has its recency refreshed: the engine just queued
// a vertex whose adjacency lives there, so the block will be read shortly.
// Recency alone would leave it wherever its *last* read put it — often the
// tail, evicted in the push-to-pop gap and then re-read from the device
// moments later.
//
//lint:hotpath
func (c *CachedStore) queued(id int64) {
	if c.pending.queued(id) {
		c.touch(id)
	}
}

// touch refreshes block id's recency if it is cached (a block still in
// flight has no recency yet and enters the lru at its front). The residency
// bitset pre-filters non-resident blocks, so the common cold-block case costs
// one atomic load and no lock.
//
//lint:hotpath
func (c *CachedStore) touch(id int64) {
	if id < 0 || id >= c.maxBlock {
		return
	}
	if c.resident[id>>6].Load()&(1<<(uint(id)&63)) == 0 {
		return
	}
	sh := c.shard(id)
	sh.mu.Lock()
	if el, ok := sh.blocks[id]; ok {
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
}

// PinnedHW reports the high-water mark of blocks holding queued visitors at
// once (0 on a cache nobody feeds).
func (c *CachedStore) PinnedHW() int64 { return c.pending.pinnedHW.Load() }

// setResident / clearResident maintain the residency bitset.
func (c *CachedStore) setResident(id int64) {
	if id >= 0 && id < c.maxBlock {
		c.resident[id>>6].Or(1 << (uint(id) & 63))
	}
}

func (c *CachedStore) clearResident(id int64) {
	if id >= 0 && id < c.maxBlock {
		c.resident[id>>6].And(^uint64(1 << (uint(id) & 63)))
	}
}

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
	InflightHW int64
}

// Add accumulates other into s for a shard mount's roll-up: counters sum,
// InflightHW takes the larger member.
func (s *CacheIOStats) Add(other CacheIOStats) {
	s.Fetches += other.Fetches
	s.Blocks += other.Blocks
	s.Waits += other.Waits
	s.Evictions += other.Evictions
	s.InflightHW = max(s.InflightHW, other.InflightHW)
}

// IOStats reports the miss-path counters.
func (c *CachedStore) IOStats() CacheIOStats {
	return CacheIOStats{Fetches: c.misses.Load(), Blocks: c.fetched.Load(), Waits: c.waits.Load(),
		Evictions: c.evictions.Load(), InflightHW: c.flyingHW.Load()}
}

// Size implements Sizer.
func (c *CachedStore) Size() int64 { return c.size }

func (c *CachedStore) shard(id int64) *cacheShard {
	return &c.shards[uint64(id)%uint64(len(c.shards))]
}

// dropLocked evicts one filled block: off the shard's list and map, out of the
// residency bitset. Caller holds sh.mu.
func (c *CachedStore) dropLocked(sh *cacheShard, el *list.Element) {
	ent := el.Value.(*cacheEntry)
	sh.lru.Remove(el)
	delete(sh.blocks, ent.id)
	c.clearResident(ent.id)
	c.evictions.Add(1)
}

// evictSampleSlack bounds how far past the overflow count eviction looks for
// settled blocks before it starts evicting pinned ones. It caps the lock-hold
// time at O(overflow + slack), and it also bounds how far the order may
// deviate from recency: on power-law graphs a hub block's counter dips to
// zero between label corrections, and a wide sample evicts exactly those
// about-to-be-re-queued blocks. A few positions of slack keep the
// settled-first preference without surrendering the recency signal.
const evictSampleSlack = 4

// evictLocked brings the shard back under capacity, walking the filled blocks
// back to front — the in-flight table is not on the list, so a block under I/O
// is never picked (keep, the block just filled, is never evicted either). It
// samples the tail, evicting settled blocks (score 0) oldest-first; on a cache
// nobody feeds every block is settled, which makes this exact LRU. When the
// shard is still over capacity with everything sampled pinned it falls back
// to recency order — capacity is a hard budget, pending-work counts carry no
// recency signal, and when the frontier spans several times the cache nearly
// every block scores positive and score differences are noise. Caller holds
// sh.mu.
func (c *CachedStore) evictLocked(sh *cacheShard, keep *list.Element) {
	over := sh.lru.Len() - sh.capacity
	sample := over + evictSampleSlack
	for el := sh.lru.Back(); el != nil && over > 0 && sample > 0; {
		prev := el.Prev()
		if el != keep {
			sample--
			if c.pending.score(el.Value.(*cacheEntry).id) == 0 {
				c.dropLocked(sh, el)
				over--
			}
		}
		el = prev
	}
	for el := sh.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if el != keep {
			c.dropLocked(sh, el)
			over--
		}
		el = prev
	}
}

// block returns the cached contents of block id, fetching from the device on
// a miss. Concurrent misses on the same block share one device read
// (singleflight): with hundreds of visitors sweeping the same id range, the
// first requester fetches and the rest wait on the in-flight entry — without
// this, a cold block would be read once per waiting visitor.
func (c *CachedStore) block(id int64) ([]byte, error) {
	sh := c.shard(id)
	for {
		sh.mu.Lock()
		if el, ok := sh.blocks[id]; ok {
			sh.lru.MoveToFront(el)
			data := el.Value.(*cacheEntry).data
			sh.mu.Unlock()
			c.hits.Add(1)
			return data, nil
		}
		entry := sh.inflight[id]
		sh.mu.Unlock()
		if entry != nil {
			c.waits.Add(1)
			<-entry.ready
			if entry.err != nil {
				return nil, entry.err
			}
			c.hits.Add(1)
			return entry.data, nil
		}
		if id < 0 || id >= c.maxBlock {
			return nil, fmt.Errorf("sem: cache read beyond device end (block %d)", id)
		}
		if entry = c.fetch(id, id+1); entry != nil {
			return entry.data, entry.err
		}
		// Another reader reserved or filled id since the lookup: look again.
	}
}

// fetch is the only place the cache reads the device. It wants blocks
// [lo, hi), shapes them into a span, reserves the span's absent blocks in the
// in-flight tables, reads the span in one device operation, then fills or
// fails every block it reserved and only then charges the filled ones to
// their shards. It returns lo's entry, completed, or nil without reading when
// lo is already cached or in flight under another fetch.
func (c *CachedStore) fetch(lo, hi int64) *cacheEntry {
	// Each miss fetches up to `readahead` consecutive blocks.
	hi = min(max(hi, lo+int64(c.readahead)), c.maxBlock)
	// Span shaping: the readahead window extends through the contiguous run of
	// blocks with pending visitors. Those blocks are guaranteed future reads —
	// the settle counters say queued work targets them — so fetching them now
	// converts their upcoming miss operations into hits for only the
	// bandwidth term of this one operation. The extension is capped at 4x the
	// readahead and at half of the cache's block budget: an uncapped span can
	// fill the entire cache from one miss and flush exactly the residency it
	// is trying to build (measured as a ~10-20% read regression when the span
	// reaches the whole budget). Blocks past the pending run are never
	// fetched beyond the readahead window, so a cold start, a settled region
	// or an unfed cache reads exactly the readahead span.
	limit := min(lo+min(4*int64(c.readahead), c.capBlocks/2), c.maxBlock)
	for hi < limit && c.pending.score(hi) > 0 {
		hi++
	}

	// Reserve every absent block of the span; a block already cached or in
	// flight stays its holder's.
	owned := make([]*cacheEntry, 0, hi-lo)
	for id := lo; id < hi; id++ {
		sh := c.shard(id)
		sh.mu.Lock()
		_, cached := sh.blocks[id]
		_, flying := sh.inflight[id]
		if !cached && !flying {
			entry := &cacheEntry{id: id, ready: make(chan struct{})}
			sh.inflight[id] = entry
			c.setResident(id)
			owned = append(owned, entry)
		}
		sh.mu.Unlock()
		if len(owned) == 0 {
			return nil
		}
	}
	c.misses.Add(1)
	c.fetched.Add(uint64(len(owned)))
	for n := c.flying.Add(int64(len(owned))); ; {
		hw := c.flyingHW.Load()
		if n <= hw || c.flyingHW.CompareAndSwap(hw, n) {
			break
		}
	}

	// One device operation covers lo through the last reserved block; extra
	// blocks pay only the bandwidth term, as with OS readahead.
	off := lo * c.blockSize
	span := make([]byte, min((owned[len(owned)-1].id+1)*c.blockSize, c.size)-off)
	_, err := c.inner.ReadAt(span, off)
	for _, entry := range owned {
		entry.err = err
		if err == nil && int64(len(span)) <= c.blockSize {
			entry.data = span
		} else if err == nil {
			// Not a sub-slice of the span, which would keep all of it alive
			// for as long as any one of its blocks stays cached: each block
			// gets a backing of its own, so evicting span-mates frees bytes.
			from := span[(entry.id-lo)*c.blockSize:]
			entry.data = make([]byte, min(int64(len(from)), c.blockSize))
			copy(entry.data, from)
		}
		sh := c.shard(entry.id)
		sh.mu.Lock()
		delete(sh.inflight, entry.id)
		if err != nil {
			c.clearResident(entry.id) // gone from the table: a later read refetches
		} else {
			el := sh.lru.PushFront(entry)
			sh.blocks[entry.id] = el
			c.evictLocked(sh, el)
			if invariant.Enabled && sh.lru.Len() > sh.capacity {
				invariant.Failf("sem cache: shard holds %d filled blocks, capacity %d", sh.lru.Len(), sh.capacity)
			}
		}
		sh.mu.Unlock()
		close(entry.ready)
	}
	c.flying.Add(-int64(len(owned)))
	return owned[0]
}

// ReadAt implements Store, assembling the request from cached blocks.
func (c *CachedStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("sem: negative read offset %d", off)
	}
	read := 0
	for read < len(p) {
		pos := off + int64(read)
		id := pos / c.blockSize
		data, err := c.block(id)
		if err != nil {
			return read, err
		}
		inBlock := pos - id*c.blockSize
		if inBlock >= int64(len(data)) {
			return read, fmt.Errorf("sem: read past end of device at offset %d", pos)
		}
		read += copy(p[read:], data[inBlock:])
	}
	return read, nil
}
