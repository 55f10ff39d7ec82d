package mount

import (
	"repro/internal/sem"
	"repro/internal/ssd"
)

// IO is one snapshot of what a mount's storage did since it was assembled:
// the one value traverse's report, /metrics' graphs section, the harness
// tables and the examples render, each in its own format. An in-memory mount
// reports the zero IO.
type IO struct {
	// Device sums the shard devices' counters. It stays zero when the caller
	// built the devices (Stores).
	Device ssd.Stats
	// Shards holds each member store's own counters in shard order: one
	// entry for a plain semi-external file, none in memory.
	Shards []ShardIO
	// Cached reports a block cache in front of every device; the four fields
	// after it are zero without one. CacheHits and CacheMisses count block
	// lookups, Cache the miss path (waits on blocks under I/O, blocks
	// fetched, evictions, blocks held beyond the budget), and PinnedHW is the
	// most blocks holding queued visitors at once on any one shard — how much
	// of the budget the traversal's settle feed defended.
	Cached                 bool
	CacheHits, CacheMisses uint64
	Cache                  sem.CacheIOStats
	PinnedHW               int64
	// Prefetch is the raw-device pipeline's span-coalescing and in-edge scan
	// counters; zero on a mount that never windowed.
	Prefetch sem.PrefetchStats
	// EdgeBytes is the on-flash size of the edge data and Edges the logical
	// edge count, both summed across the shards.
	EdgeBytes int64
	Edges     uint64
}

// ShardIO is one shard's share of an IO snapshot.
type ShardIO struct {
	Device                 ssd.Stats
	CacheHits, CacheMisses uint64
}

// CacheHitRate is block-cache hits over block lookups, 0 when there were none.
func (io IO) CacheHitRate() float64 {
	if io.CacheHits+io.CacheMisses == 0 {
		return 0
	}
	return float64(io.CacheHits) / float64(io.CacheHits+io.CacheMisses)
}

// BytesPerEdge is the on-flash edge density: 8.00 for raw weighted records,
// 4.00 unweighted, 1-4 for compressed blocks; 0 for a mount without edges.
func (io IO) BytesPerEdge() float64 {
	if io.Edges == 0 {
		return 0
	}
	return float64(io.EdgeBytes) / float64(io.Edges)
}

// IO snapshots the mount's storage counters. It may be called while
// traversals run; the counters of different layers are then not mutually
// consistent to the last operation.
func (m *Mounted) IO() IO {
	io := IO{Shards: make([]ShardIO, len(m.Graphs)), Cached: m.Caches != nil}
	for i, d := range m.Devices {
		io.Shards[i].Device = d.Stats()
		io.Device.Add(io.Shards[i].Device)
	}
	for i, c := range m.Caches {
		sh := &io.Shards[i]
		sh.CacheHits, sh.CacheMisses = c.Stats()
		io.CacheHits += sh.CacheHits
		io.CacheMisses += sh.CacheMisses
		io.Cache.Add(c.IOStats())
		io.PinnedHW = max(io.PinnedHW, c.PinnedHW())
	}
	for _, sg := range m.Graphs {
		io.Prefetch.Add(sg.PrefetchStats())
		io.EdgeBytes += sg.EdgeBytes()
		io.Edges += sg.NumEdges()
	}
	return io
}
