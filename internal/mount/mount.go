// Package mount assembles the storage stack under a traversal — one simulated
// flash device per shard, the semi-external graph and the shard router, with
// the block cache between them or the graph's own zero-budget block table, or
// an in-memory CSR — and derives the engine configuration that matches it.
// cmd/traverse, cmd/serve, cmd/bench, the harness and the examples all mount
// through here, so the default recipe (4 KiB blocks, half the file, readahead
// 8), the choice of read path from whether a cache is mounted (behind the
// cache the traversal's state steers replacement and nothing windows; on the
// raw device the engine pops windows and their ranges become block requests
// that share reads in flight), and the rule that
// an in-memory mount pairs a directed graph with its transpose exactly when
// its file carries an in-edge section each exist once. Which BFS driver runs
// is not the mount's to say: core.BFS chooses from the adjacency it is handed
// (capability follows the data), the mount only derives the switch thresholds
// a capable graph's driver uses.
//
// Nothing outside this package takes a mount apart: callers traverse
// Mounted.Adj under Mounted.Engine, read what the storage did from one
// Mounted.IO snapshot (io.go), and produce the files a mount reads with the
// one shard-set writer (write.go).
package mount

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// The block-cache recipe every mount shares unless Options overrides the
// budget or the readahead, and the pop window of a mount without the cache.
const (
	blockSize        = 4096
	defaultCacheFrac = 2
	defaultReadahead = 8
	// rawWindow visitors are popped at once on a raw-device mount, their
	// reads coalesced across sem.DefaultPrefetchGap: 1.5-3.7x faster than
	// one read per visit there, 1.3-2.2x slower behind the cache
	// (EXPERIMENTS.md "The mount chooses").
	rawWindow = 16
)

// Options selects the storage stack and the engine knobs tied to it.
type Options struct {
	// SEM leaves the edges on a simulated flash device per shard; false
	// decodes every shard into one in-memory CSR.
	SEM bool
	// Profile is the device model of a SEM mount.
	Profile ssd.Profile
	// NoCache mounts the raw device without the block cache: every adjacency
	// read is a device operation, so the engine pops rawWindow visitors at
	// once and their ranges become block requests on a table that keeps no
	// block.
	NoCache bool
	// CacheFrac sets the block-cache budget to the store's bytes / CacheFrac
	// (0 = 2, half the file), never below CacheFloor bytes.
	CacheFrac  int64
	CacheFloor int64
	// Readahead is the number of consecutive blocks one cache miss fetches
	// in a single device operation (0 = 8; 1 disables readahead).
	Readahead int
	// Shards is the shard count Files demands of the path (0 = auto-detect).
	Shards int
}

// Validate rejects values no mount can honor.
func (o Options) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (0 = auto-detect), got %d", o.Shards)
	}
	if o.CacheFrac < 0 || o.CacheFloor < 0 || o.Readahead < 0 {
		return fmt.Errorf("cache budget divisor %d, floor %d and readahead %d must be >= 0", o.CacheFrac, o.CacheFloor, o.Readahead)
	}
	return nil
}

// Mounted is one assembled storage stack.
type Mounted struct {
	// Adj is what traversals run against: the CSR (paired with its transpose
	// when the file carried an in-edge section), one semi-external graph, or
	// the shard router over several.
	Adj graph.Adjacency[uint32]
	// CSR is the decoded graph of an in-memory mount, nil otherwise.
	CSR *graph.CSR[uint32]
	// Devices, Caches and Graphs are the per-shard layers of a SEM mount, in
	// shard order. Devices is nil when the caller built the stores (Stores);
	// Caches is nil under NoCache.
	Devices []*ssd.Device
	Caches  []*sem.CachedStore
	Graphs  []*sem.Graph[uint32]
	// Shards is the width of the shard set behind Adj — a shard router, or in
	// memory the merged CSR — and 0 for a plain file.
	Shards int
	// Engine is the engine configuration that matches the mount (see finish);
	// callers add Workers.
	Engine core.Config

	files []*os.File
}

// Close releases the files Files left open: a semi-external mount reads them
// for as long as it is traversed, an in-memory one holds none.
func (m *Mounted) Close() error {
	var first error
	for _, f := range m.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.files = nil
	return first
}

// Files mounts the graph file at path, or the shard set path.shard0..N-1
// (opt.Shards of them, or as many as exist when it is 0).
func Files(path string, opt Options) (m *Mounted, err error) {
	paths, sharded, err := sem.ShardPaths(path, opt.Shards)
	if err != nil {
		return nil, err
	}
	files := make([]*os.File, 0, len(paths))
	defer func() {
		// An in-memory mount is fully decoded — a process serving many of
		// them holds no descriptor for any — and a failed one reads nothing
		// again; only a semi-external mount keeps its files.
		if err != nil || m.CSR != nil {
			for _, f := range files {
				_ = f.Close() // read-only; a mount error is the one to report
			}
		}
	}()
	backings := make([]ssd.Backing, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		if backings[i], err = ssd.NewFileBacking(f); err != nil {
			return nil, err
		}
	}
	if m, err = assemble(backings, sharded, opt); err != nil {
		return nil, err
	}
	if m.CSR == nil {
		m.files = files
	}
	return m, nil
}

// Graph mounts one serialized graph per backing; more than one backing is a
// shard set in shard order.
func Graph(backings []ssd.Backing, opt Options) (*Mounted, error) {
	return assemble(backings, len(backings) > 1, opt)
}

func assemble(backings []ssd.Backing, sharded bool, opt Options) (*Mounted, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(backings) == 0 {
		return nil, fmt.Errorf("mount: no backing to mount")
	}
	if opt.SEM {
		devs := make([]*ssd.Device, len(backings))
		stores := make([]sem.Store, len(backings))
		for i, b := range backings {
			devs[i] = ssd.New(opt.Profile, b)
			stores[i] = devs[i]
		}
		m, err := semStack(stores, sharded, opt)
		if err != nil {
			return nil, err
		}
		m.Devices = devs
		return m, nil
	}
	m := &Mounted{}
	var err error
	if sharded {
		m.Shards = len(backings)
		stores := make([]sem.Store, len(backings))
		for i, b := range backings {
			stores[i] = b
		}
		m.CSR, err = sem.LoadShardedCSR[uint32](stores)
	} else {
		m.CSR, err = sem.LoadCSR[uint32](backings[0])
	}
	if err != nil {
		return nil, err
	}
	m.Adj = m.CSR
	if !m.CSR.Symmetric() && inSections(backings) {
		// The writer paid for a transpose section so that BFS could switch
		// direction on this directed graph; in memory that capability is the
		// CSR paired with its transpose.
		rev, err := graph.Transpose(m.CSR)
		if err != nil {
			return nil, err
		}
		if m.Adj, err = graph.NewBidi[uint32](m.CSR, rev); err != nil {
			return nil, err
		}
	}
	m.finish(opt)
	return m, nil
}

// inSections reports whether every image of a directed graph (whose headers
// the loader has just vouched for) carries an in-edge section.
func inSections(backings []ssd.Backing) bool {
	for _, b := range backings {
		if g, err := sem.Open[uint32](b); err != nil || !g.HasInEdges() {
			return false
		}
	}
	return true
}

// Stores mounts semi-externally over devices the caller built — a RAID-0
// array, say — one per shard. Each store must report its size (sem.Sizer)
// unless opt.NoCache. opt.SEM and opt.Profile are not consulted.
func Stores(stores []sem.Store, opt Options) (*Mounted, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(stores) == 0 {
		return nil, fmt.Errorf("mount: no store to mount")
	}
	return semStack(stores, len(stores) > 1, opt)
}

// semStack is the semi-external half, over one store per shard: the cache fed
// by the graph it serves, or the raw device under the zero-budget table
// sem.Open puts there with windows enabled; then the shard router.
func semStack(stores []sem.Store, sharded bool, opt Options) (*Mounted, error) {
	m := &Mounted{Graphs: make([]*sem.Graph[uint32], len(stores))}
	if !opt.NoCache {
		m.Caches = make([]*sem.CachedStore, len(stores))
	}
	for i, store := range stores {
		var err error
		if !opt.NoCache {
			szr, ok := store.(sem.Sizer)
			if !ok {
				return nil, fmt.Errorf("mount: shard %d: the block cache needs a store with a known size", i)
			}
			if m.Caches[i], err = sem.NewCachedStoreRA(store, blockSize, opt.cacheBudget(szr.Size()), opt.readahead()); err != nil {
				return nil, err
			}
			store = m.Caches[i]
		}
		if m.Graphs[i], err = sem.Open[uint32](store); err != nil {
			return nil, err
		}
		if opt.NoCache {
			m.Graphs[i].EnablePrefetch(sem.PrefetchConfig{MaxGap: sem.DefaultPrefetchGap})
		} else {
			m.Graphs[i].EnableStateCache()
		}
	}
	m.Adj = m.Graphs[0]
	if sharded {
		router, err := sem.MountShards(m.Graphs)
		if err != nil {
			return nil, err
		}
		m.Adj, m.Shards = router, len(stores)
	}
	m.finish(opt)
	return m, nil
}

func (o Options) cacheBudget(size int64) int64 {
	frac := o.CacheFrac
	if frac == 0 {
		frac = defaultCacheFrac
	}
	if budget := size / frac; budget > o.CacheFloor {
		return budget
	}
	return o.CacheFloor
}

func (o Options) readahead() int {
	if o.Readahead == 0 {
		return defaultReadahead
	}
	return o.Readahead
}

// finish derives the engine configuration once Adj stands. The secondary
// vertex-id sort key is on exactly when the edges stay on a device: at the
// queue lengths the proposal filter leaves it ties either way (EXPERIMENTS.md
// "Semi-sort at 128 queues"), so it is the mount's constant, not a knob. The
// pop window is on exactly when the mount enabled windows on the graph to
// consume it. Direction is left at its zero value — core.BFS chooses its
// driver from Adj — and a graph that can answer "who points at v?" gets the
// switch thresholds of its own degree distribution instead of one-size-fits-all
// constants, for whenever the driver runs.
func (m *Mounted) finish(opt Options) {
	m.Engine = core.Config{SemiSort: m.CSR == nil}
	if m.CSR == nil && opt.NoCache {
		m.Engine.Prefetch = rawWindow
	}
	if _, ok := graph.InEdges[uint32](m.Adj); ok {
		m.Engine.Alpha, m.Engine.Beta = graph.DegreesOf[uint32](m.Adj).DirectionThresholds()
	}
}
