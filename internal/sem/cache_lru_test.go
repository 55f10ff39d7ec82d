package sem

import (
	"math/rand"
	"slices"
	"testing"
)

// spanLog is a zero-latency store that records every device operation.
type spanLog struct {
	size  int64
	spans [][2]int64 // offset, length
}

func (s *spanLog) Size() int64 { return s.size }

func (s *spanLog) ReadAt(p []byte, off int64) (int, error) {
	s.spans = append(s.spans, [2]int64{off, int64(len(p))})
	return len(p), nil
}

// refLRU is the reference the cache is held to: per shard (block id modulo
// the shard count) a recency list of at most capacity blocks; a miss reads
// from the missed block through the last absent block of the readahead window
// in one operation and installs the absent ones in order, each evicting its
// shard's least recently used block.
type refLRU struct {
	shards    [][]int64 // most recent first
	capacity  int
	readahead int64
	maxBlock  int64
}

func (r *refLRU) read(id int64) (hit bool, lo, hi int64) {
	n := int64(len(r.shards))
	if s := r.shards[id%n]; slices.Contains(s, id) {
		i := slices.Index(s, id)
		copy(s[1:i+1], s[:i])
		s[0] = id
		return true, 0, 0
	}
	var absent []int64
	for b := id; b < min(id+r.readahead, r.maxBlock); b++ {
		if !slices.Contains(r.shards[b%n], b) {
			absent = append(absent, b)
		}
	}
	for _, b := range absent {
		s := slices.Insert(r.shards[b%n], 0, b)
		r.shards[b%n] = s[:min(len(s), r.capacity)]
	}
	return false, id, absent[len(absent)-1] + 1
}

// TestUnfedCacheIsExactLRU drives a cache — the kind the repository
// benchmark builds by hand, and every cached mount — with random reads and
// holds it, read by read, to the reference: the same hit/miss verdict and the
// same device spans, across single- and multi-shard budgets and readahead
// widths, one of them past half the budget, where the window is half the
// budget.
func TestUnfedCacheIsExactLRU(t *testing.T) {
	const block = 512
	for _, tc := range []struct {
		blocks    int64 // device size in blocks, plus a partial tail block
		capBlocks int64
		readahead int
	}{
		{100, 8, 1},    // one shard, no readahead
		{100, 8, 4},    // one shard, readahead half the budget
		{100, 8, 8},    // one shard, readahead the whole budget: a window of 4
		{300, 40, 8},   // one shard at the mount's readahead
		{300, 64, 8},   // two shards
		{600, 200, 3},  // six shards
		{2000, 600, 8}, // sixteen shards
	} {
		dev := &spanLog{size: tc.blocks*block + 100}
		c, err := NewCachedStoreRA(dev, block, tc.capBlocks*block, tc.readahead)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refLRU{
			shards:    make([][]int64, len(c.shards)),
			capacity:  c.shards[0].capacity,
			readahead: min(int64(tc.readahead), tc.capBlocks/2),
			maxBlock:  c.maxBlock,
		}
		rng := rand.New(rand.NewSource(tc.blocks + tc.capBlocks))
		var wantHits, wantMisses uint64
		var wantSpans [][2]int64
		buf := make([]byte, 2*block)
		for i := 0; i < 20000; i++ {
			// A skewed draw keeps a hot set smaller than the budget next to a
			// cold tail, so hits, evictions and partly cached windows all occur.
			id := rng.Int63n(c.maxBlock)
			if rng.Intn(3) > 0 {
				id = rng.Int63n(tc.capBlocks * 3 / 2)
			}
			off := id*block + rng.Int63n(min(block, dev.size-id*block))
			n := min(1+rng.Int63n(2*block-1), dev.size-off)
			for b := id; b <= (off+n-1)/block; b++ {
				hit, lo, hi := ref.read(b)
				if hit {
					wantHits++
					continue
				}
				wantMisses++
				wantSpans = append(wantSpans, [2]int64{lo * block, min(hi*block, dev.size) - lo*block})
			}
			if _, err := c.ReadAt(buf[:n], off); err != nil {
				t.Fatal(err)
			}
			if hits, misses := c.Stats(); hits != wantHits || misses != wantMisses {
				t.Fatalf("%+v read %d (block %d): hits/misses %d/%d, reference LRU %d/%d", tc, i, id, hits, misses, wantHits, wantMisses)
			}
		}
		if !slices.Equal(dev.spans, wantSpans) {
			t.Errorf("%+v: %d device spans differ from the reference LRU's %d", tc, len(dev.spans), len(wantSpans))
		}
	}
}

// TestMissReadsItsReadahead pins the read rule: a cold miss is one device
// operation of min(readahead, capBlocks/2) blocks on a budgeted table, and of
// its readahead on a table that keeps nothing. The first row is the
// repository benchmark's hand-built cache (readahead 8 at half of a 128-block
// file), which the clamp must leave at 8; the second the mount's readahead on
// the same file.
func TestMissReadsItsReadahead(t *testing.T) {
	const block = 4096
	for _, tc := range []struct {
		capBlocks int64
		readahead int
		want      int64 // blocks the miss reads
	}{
		{64, 8, 8},
		{64, 32, 32},
		{64, 64, 32},
		{8, 32, 4},
		{2, 8, 1},
		{0, 1, 1},
	} {
		dev := &spanLog{size: 128 * block}
		c, err := NewCachedStoreRA(dev, block, tc.capBlocks*block, tc.readahead)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadAt(make([]byte, 8), 16*block+100); err != nil {
			t.Fatal(err)
		}
		if want := [][2]int64{{16 * block, tc.want * block}}; !slices.Equal(dev.spans, want) {
			t.Errorf("%+v: a miss read %v (offset, bytes), want %v", tc, dev.spans, want)
		}
	}
}
