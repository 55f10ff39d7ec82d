package sem

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
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

	// policy, when non-nil, scores blocks at eviction time (see CachePolicy);
	// nil is exact LRU. Set once via UsePolicy/EnableStatePolicy before the
	// store sees traffic.
	policy CachePolicy

	// resident is a bitset over block ids: a set bit means the block is
	// cached or being fetched. It gives the prefetcher and the recency-touch
	// path a residency answer without taking shard locks on the hot path.
	resident []atomic.Uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int // max cached blocks in this shard
	blocks   map[int64]*list.Element
	lru      *list.List // front = most recent; values are *cacheEntry
}

type cacheEntry struct {
	id    int64
	data  []byte
	ready chan struct{} // closed once data/err are set (singleflight)
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
	c.resident = make([]atomic.Uint64, (c.maxBlock+63)/64)
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: perShard,
			blocks:   make(map[int64]*list.Element),
			lru:      list.New(),
		}
	}
	return c, nil
}

// UsePolicy installs an eviction policy (nil = exact LRU). Call before the
// store sees traffic; the policy pointer is read without synchronization on
// the miss path.
func (c *CachedStore) UsePolicy(p CachePolicy) { c.policy = p }

// EnableStatePolicy installs a state-aware policy sized for this store and
// returns it so the settle hook can feed it. Call before traffic.
func (c *CachedStore) EnableStatePolicy() *StatePolicy {
	sp := NewStatePolicy(c.maxBlock)
	sp.onHot = c.touch
	c.policy = sp
	return sp
}

// touch refreshes block id's recency if it is resident. The state policy
// calls it when a block gains its first pending visitor: the engine just
// queued a vertex whose adjacency lives there, so the block will be read
// within a pop-window's time. Pure LRU would leave it wherever its *last*
// read put it — often the tail, evicted in the push-to-pop gap and then
// re-read from the device moments later. The residency bitset pre-filters
// non-resident blocks, so the common cold-block case costs one atomic load
// and no lock.
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

// PolicyName reports the active eviction policy's flag spelling.
func (c *CachedStore) PolicyName() string {
	if c.policy == nil {
		return PolicyLRU
	}
	return c.policy.Name()
}

// PinnedHW reports the state policy's pinned-block high-water mark (0 under
// plain LRU).
func (c *CachedStore) PinnedHW() int64 {
	if sp, ok := c.policy.(*StatePolicy); ok {
		return sp.PinnedHW()
	}
	return 0
}

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

// residentRange reports whether every block covering [off, off+n) is cached
// or already being fetched. The prefetcher uses it to drop extents from span
// formation: a fully resident extent is served by a synchronous cache hit at
// visit time, so putting it in a device span would re-read bytes the cache
// already holds. Lock-free bitset probes; an in-flight block counts as
// resident because the visit-time hit simply waits on that fetch.
//
//lint:hotpath
func (c *CachedStore) residentRange(off int64, n int) bool {
	if n <= 0 {
		return true
	}
	last := (off + int64(n) - 1) / c.blockSize
	for b := off / c.blockSize; b <= last; b++ {
		if b < 0 || b >= c.maxBlock {
			return false
		}
		if c.resident[b>>6].Load()&(1<<(uint(b)&63)) == 0 {
			return false
		}
	}
	return true
}

// Stats reports cache hits and misses (block granularity).
func (c *CachedStore) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Size implements Sizer.
func (c *CachedStore) Size() int64 { return c.size }

func (c *CachedStore) shard(id int64) *cacheShard {
	return &c.shards[uint64(id)%uint64(len(c.shards))]
}

// install adds an in-flight placeholder for id to its shard, evicting
// entries past capacity. Returns (nil, existing) when id is already present.
func (c *CachedStore) install(id int64, entry *cacheEntry) (el *list.Element, existing *cacheEntry) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.blocks[id]; ok {
		sh.lru.MoveToFront(cur)
		return nil, cur.Value.(*cacheEntry)
	}
	el = sh.lru.PushFront(entry)
	sh.blocks[id] = el
	c.setResident(id)
	c.evictLocked(sh, el)
	return el, nil
}

// dropLocked removes one entry from the shard's list, map, and the residency
// bitset. Caller holds sh.mu.
func (c *CachedStore) dropLocked(sh *cacheShard, el *list.Element) {
	ent := el.Value.(*cacheEntry)
	sh.lru.Remove(el)
	delete(sh.blocks, ent.id)
	c.clearResident(ent.id)
}

// evictSampleSlack bounds how far past the overflow count the state-aware
// eviction pass looks for settled blocks before it starts evicting pinned
// ones. It caps the lock-hold time at O(overflow + slack), and it also bounds
// how far the policy may deviate from LRU order: on power-law graphs a hub
// block's counter dips to zero between label corrections, and a wide sample
// evicts exactly those about-to-be-re-queued blocks. A few positions of slack
// keep the settled-first preference without surrendering the recency signal.
const evictSampleSlack = 4

// evictLocked brings the shard back under capacity in one batched
// back-to-front pass (keep, when non-nil, is never evicted). With no policy
// this is exact LRU: the tail entries are dropped oldest-first. With a policy
// it samples the tail, evicting settled blocks (score 0) oldest-first and
// falling back to plain LRU order over the sample when the shard is over
// capacity with everything pinned — capacity is a hard budget, and recency
// beats near-uniform positive scores as a reuse predictor. Caller holds
// sh.mu.
func (c *CachedStore) evictLocked(sh *cacheShard, keep *list.Element) {
	over := sh.lru.Len() - sh.capacity
	if over <= 0 {
		return
	}
	if c.policy == nil {
		for el := sh.lru.Back(); el != nil && over > 0; {
			prev := el.Prev()
			if el != keep {
				c.dropLocked(sh, el)
				over--
			}
			el = prev
		}
		return
	}
	type victim struct {
		el    *list.Element
		score int64
	}
	cand := make([]victim, 0, over+evictSampleSlack)
	for el := sh.lru.Back(); el != nil && len(cand) < cap(cand); el = el.Prev() {
		if el == keep {
			continue
		}
		cand = append(cand, victim{el, c.policy.Score(el.Value.(*cacheEntry).id)})
	}
	// First pass: settled blocks, oldest first.
	for i := range cand {
		if over == 0 {
			return
		}
		if cand[i].score == 0 {
			c.dropLocked(sh, cand[i].el)
			cand[i].el = nil
			over--
		}
	}
	// Still over capacity: everything sampled is pinned, and pending-work
	// counts carry no recency signal — when the frontier spans several times
	// the cache, nearly every block scores positive and score differences are
	// noise. Fall back to LRU order (cand is back-to-front, oldest first):
	// capacity is a hard budget, and recency is the best remaining predictor.
	for i := range cand {
		if over == 0 {
			return
		}
		if cand[i].el != nil {
			c.dropLocked(sh, cand[i].el)
			cand[i].el = nil
			over--
		}
	}
}

func (c *CachedStore) remove(id int64, el *list.Element) {
	sh := c.shard(id)
	sh.mu.Lock()
	if cur, ok := sh.blocks[id]; ok && cur == el {
		c.dropLocked(sh, el)
	}
	sh.mu.Unlock()
}

func (c *CachedStore) await(entry *cacheEntry) ([]byte, error) {
	<-entry.ready // no-op for completed entries
	if entry.err != nil {
		return nil, entry.err
	}
	c.hits.Add(1)
	return entry.data, nil
}

// block returns the cached contents of block id, fetching from the device on
// a miss. Concurrent misses on the same block share one device read
// (singleflight): with hundreds of visitors sweeping the same id range, the
// first requester fetches and the rest wait on the in-flight entry — without
// this, a cold block would be read once per waiting visitor. Each miss
// fetches up to `readahead` consecutive blocks in one device operation.
func (c *CachedStore) block(id int64) ([]byte, error) {
	sh := c.shard(id)
	sh.mu.Lock()
	if el, ok := sh.blocks[id]; ok {
		sh.lru.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		sh.mu.Unlock()
		return c.await(entry)
	}
	sh.mu.Unlock()

	maxBlock := (c.size + c.blockSize - 1) / c.blockSize
	if id >= maxBlock || id < 0 {
		return nil, fmt.Errorf("sem: cache read beyond device end (block %d)", id)
	}
	span := int64(c.readahead)
	if id+span > maxBlock {
		span = maxBlock - id
	}
	// State-aware span shaping: a miss's readahead window extends through
	// the contiguous run of blocks with pending visitors. Those blocks are
	// guaranteed future reads — the settle counters say queued work targets
	// them — so fetching them now converts their upcoming miss operations
	// into hits for only the bandwidth term of this one operation. The
	// extension is capped at 4x the legacy readahead and at half of the
	// cache's block budget: an uncapped span can install the entire cache
	// in one miss and flush exactly the residency it is trying to build
	// (measured as a ~10-20% read regression when the span reaches the
	// whole budget). Blocks past the pending run are never fetched
	// beyond the legacy window, so a cold start or a settled region reads
	// exactly as before.
	if c.policy != nil {
		max := 4 * int64(c.readahead)
		if cb := c.capBlocks / 2; cb < max {
			max = cb
		}
		if id+max > maxBlock {
			max = maxBlock - id
		}
		k := span
		for k < max && c.policy.Score(id+k) > 0 {
			k++
		}
		span = k
	}

	// Install placeholders for every absent block of the span. If block id
	// itself appears concurrently, another fetcher owns it: wait on theirs.
	type owned struct {
		id    int64
		el    *list.Element
		entry *cacheEntry
	}
	var mine []owned
	for k := int64(0); k < span; k++ {
		bid := id + k
		entry := &cacheEntry{id: bid, ready: make(chan struct{})}
		el, existing := c.install(bid, entry)
		if existing != nil {
			if k == 0 {
				return c.await(existing)
			}
			continue // already cached or being fetched by someone else
		}
		mine = append(mine, owned{id: bid, el: el, entry: entry})
	}
	c.misses.Add(1)

	// One device operation covers the whole span; extra blocks pay only the
	// bandwidth term, as with OS readahead.
	off := id * c.blockSize
	n := span * c.blockSize
	if off+n > c.size {
		n = c.size - off
	}
	data := make([]byte, n)
	_, err := c.inner.ReadAt(data, off)
	var out []byte
	for _, o := range mine {
		if err != nil {
			o.entry.err = err
			close(o.entry.ready)
			c.remove(o.id, o.el) // drop so later reads can retry
			continue
		}
		lo := (o.id - id) * c.blockSize
		hi := lo + c.blockSize
		if hi > n {
			hi = n
		}
		o.entry.data = data[lo:hi:hi]
		close(o.entry.ready)
		if o.id == id {
			out = o.entry.data
		}
	}
	if err != nil {
		return nil, err
	}
	if out == nil {
		// id was concurrently owned elsewhere and we fetched only trailing
		// blocks; fall back to the (now-present or refetchable) entry.
		return c.block(id)
	}
	return out, nil
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
