package sem

// This file is the semi-external asynchronous I/O pipeline. Its one entry is
// Request, and it has two callers: the asynchronous engine hands it each sweep
// a device runner pops — up to Config.Prefetch visitors, 16 on a raw-device
// mount, one behind the cache — and the BFS driver each ioFanout slice of a
// top-down phase's frontier. Open attaches a prefetcher (the coalescing gap and
// the counters) over a CachedStore, a table that keeps blocks, and a raw mount
// calls EnablePrefetch. The engine's SemiSort key arranges for each worker to
// pop runs of id-adjacent vertices (§IV-C); their adjacency extents therefore
// sit near each other in the on-device edge region. A sweep's extents merge
// into ranges while each next one starts within MaxGap bytes of the running
// end, and every range becomes one asynchronous [lo, hi) block request on the
// graph's table (cache.go). A block the table already holds — under another
// reader's fetch, or cached — is shared; the rest are read in one device
// operation on the table's bounded I/O pool while the worker runs other work.
// On ssd.Device a range pays one latency term plus bandwidth instead of k
// latencies — the request-merging trick of FlashGraph-class I/O layers — and a
// block several workers want is read once. Request gives each vertex of a sweep
// a read holding the entries of its own blocks, out of its range's: a visitor
// whose blocks are not all resident is parked on a fetch they are under until
// it lands — and on the next, if its extent spans blocks of several fetches —
// and the landing is posted to its runner's sink, or, in the driver, which has
// none, its Neighbors call waits for them; Neighbors then decodes from the
// entries the read holds, with no second claim. A graph without a prefetcher,
// over a zero-budget table, reads each extent alone, as its synchronous reads
// do, in a fetch of its own.
//
// Ownership and correctness: a sweep is popped from queues one worker owns,
// so every vertex in it is owned by that worker (the engine's hash routing),
// or it is one driver worker's slice of a frontier; the reads live in that
// worker's scratch and parked visitors — no other worker ever touches them.
// A fetch publishes to its readers only through its ready channel (close
// happens-after the bytes and the error are written), then posts it to their
// sinks (flight.land). Visiting in sweep order rather than strict
// one-at-a-time heap order is safe for the label-correcting kernels because
// every relaxation is monotone: reordering costs at most extra corrections.

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultPrefetchGap is the coalescing gap of every sweep and of the
// bottom-up scan. It is sized to bridge the ownership stride:
// with W workers each owning a pseudorandom 1/W of the frontier, consecutive
// extents in one worker's semi-sorted sweep sit ~W x degree x recordSize
// bytes apart (~16 KiB at the repository defaults of 128 workers, degree 16,
// 4-8 byte records). 32 KiB spans that stride most of the time, and the
// bridged bytes cost only the device's bandwidth term (~160 µs on the
// slowest profile) against the whole latency term they save (3 ms there).
const DefaultPrefetchGap = 32 << 10

// prefetchIOWorkers is the smallest bound on a table's concurrent
// asynchronous fetches — sweep ranges and scan spans. A table over a store
// that reports its channel count (ssd.Device) widens the pool to it, so the
// bound never throttles a device below its own parallelism; the paper's three
// profiles have 9-20 channels and keep 32. It exists to keep the goroutine
// and buffer fan-out finite when hundreds of traversal workers sweep
// simultaneously.
const prefetchIOWorkers = 32

// rawBlock is the block of the zero-budget table Open puts under a raw store:
// the unit a range rounds out to and readers share a read in flight by.
const rawBlock = 4096

// PrefetchConfig tunes the asynchronous adjacency pipeline.
type PrefetchConfig struct {
	// MaxGap is the largest byte distance between two adjacency extents that
	// still merges them into one coalesced span. The gap bytes are read and
	// discarded: they cost the device's bandwidth term but save a whole
	// latency term. 0 merges only extents that touch exactly.
	MaxGap int
}

// PrefetchStats counts prefetcher activity over the graph's lifetime. All
// counters are monotone; read them after a traversal completes.
type PrefetchStats struct {
	// Windows counts the Request sweeps of more than one extent: the ones
	// that merge ranges. The counters below count only their reads.
	Windows   uint64
	Vertices  uint64 // nonzero-degree vertices in those sweeps
	Spans     uint64 // device reads their ranges issued
	SpanBytes uint64 // bytes those reads transferred
	// GapBytes is the part of SpanBytes no sweep vertex asked for: the gaps
	// bridged between near-contiguous extents, and each read's rounding out to
	// whole blocks.
	GapBytes uint64
	Consumed uint64 // sweep reads Neighbors decoded
	// Abandoned counts the sweep reads still undecoded when Request reused
	// them: their visitors were dropped before visiting.
	Abandoned uint64

	// Cross-worker sharing through the table: DedupSpans counts the sweep
	// ranges that issued no read of their own, every block of theirs being
	// under another reader's fetch already (or cached), and DedupBytes the
	// bytes those ranges spanned.
	DedupSpans uint64
	DedupBytes uint64

	// Bottom-up scan-phase counters (ScanInEdges): the device reads its spans
	// issued and the bytes they transferred, disjoint from the sweep
	// counters above.
	ScanSpans uint64
	ScanBytes uint64
}

// Add accumulates other into s, the per-shard roll-up of a sharded mount.
func (s *PrefetchStats) Add(other PrefetchStats) {
	s.Windows += other.Windows
	s.Vertices += other.Vertices
	s.Spans += other.Spans
	s.SpanBytes += other.SpanBytes
	s.GapBytes += other.GapBytes
	s.Consumed += other.Consumed
	s.Abandoned += other.Abandoned
	s.DedupSpans += other.DedupSpans
	s.DedupBytes += other.DedupBytes
	s.ScanSpans += other.ScanSpans
	s.ScanBytes += other.ScanBytes
}

// VertsPerSpan is the coalescing rate: how many vertex reads one device
// operation covers on average (1.0 = no coalescing happened).
func (s PrefetchStats) VertsPerSpan() float64 {
	if s.Spans == 0 {
		return 0
	}
	return float64(s.Vertices) / float64(s.Spans)
}

// ConsumedFrac is the fraction of prefetched lists that a visitor actually
// read; the remainder went stale between pop and visit.
func (s PrefetchStats) ConsumedFrac() float64 {
	if s.Vertices == 0 {
		return 0
	}
	return float64(s.Consumed) / float64(s.Vertices)
}

// Prefetcher is a graph's sweep configuration and counters; the reads are
// the table's. Safe for concurrent use by many workers: all state is atomic.
type Prefetcher struct {
	cfg PrefetchConfig

	windows, vertices, spans, spanBytes, gapBytes, consumed, abandoned atomic.Uint64
	dedupSpans, dedupBytes, scanSpans, scanBytes                       atomic.Uint64
}

// normalize clamps the gap to its working range.
func (c *PrefetchConfig) normalize() {
	if c.MaxGap < 0 {
		c.MaxGap = 0
	}
}

// PrefetchStats reports the prefetcher's counters; zero when prefetch was
// never enabled.
func (g *Graph[V]) PrefetchStats() PrefetchStats {
	p := g.prefetch
	if p == nil {
		return PrefetchStats{}
	}
	return PrefetchStats{
		Windows:    p.windows.Load(),
		Vertices:   p.vertices.Load(),
		Spans:      p.spans.Load(),
		SpanBytes:  p.spanBytes.Load(),
		GapBytes:   p.gapBytes.Load(),
		Consumed:   p.consumed.Load(),
		Abandoned:  p.abandoned.Load(),
		DedupSpans: p.dedupSpans.Load(),
		DedupBytes: p.dedupBytes.Load(),
		ScanSpans:  p.scanSpans.Load(),
		ScanBytes:  p.scanBytes.Load(),
	}
}

// extent is a vertex's adjacency byte range. In a sweep, v is its place in
// the sweep and k is where the entry of its first block sits in the held
// list its ranges filled.
type extent struct {
	v   uint64
	off int64
	n   int
	k   int
}

// coalesce merges the run of offset-sorted extents starting at exts[i] into
// one range — the one place extents become device requests, shared by
// sweeps (requestRanges) and the bottom-up scan (ScanInEdges). A following
// extent joins while it starts within maxGap bytes of the range's end and the
// range stays within maxBytes; duplicate or overlapping extents (the same
// vertex twice in one sweep) fold into the same bytes. The
// range is exts[i:j] over [exts[i].off, end).
//
//lint:hotpath
func coalesce(exts []extent, i int, maxGap, maxBytes int64) (j int, end int64) {
	start := exts[i].off
	end = start + int64(exts[i].n)
	for j = i + 1; j < len(exts); j++ {
		e := exts[j].off + int64(exts[j].n)
		if exts[j].off > end+maxGap || e-start > maxBytes {
			break
		}
		end = max(end, e)
	}
	return j, end
}

// wanted reports how many bytes of [lo, hi) the offset-sorted extents ask for.
func wanted(exts []extent, lo, hi int64) (n int64) {
	for _, e := range exts {
		if s, t := max(e.off, lo), min(e.off+int64(e.n), hi); t > s {
			n += t - s
			lo = t
		}
	}
	return n
}

// EnablePrefetch makes the graph merge a Request sweep's extents: they merge
// into ranges across cfg.MaxGap that become asynchronous block requests on the
// graph's table, and its in-edge scans double-buffer through the same call.
// Without it every Neighbors read without a Request is synchronous, and over a
// zero-budget table Request reads each extent alone. Open calls it over a
// CachedStore; a graph over a raw store needs the call, once, before the
// traversal starts.
func (g *Graph[V]) EnablePrefetch(cfg PrefetchConfig) {
	cfg.normalize()
	g.prefetch = &Prefetcher{cfg: cfg}
}

// prefetchSession is a worker's Request buffers, stored in its
// graph.Scratch.Prefetch: a sweep's extents, each v its place in the sweep,
// and its ranges' entries, which the sweep's reads hold from the call on;
// and ScanInEdges's: its extents, the entries of the two spans it has
// requested and not yet decoded, and the buffer a span crossing blocks is
// gathered into. Only the owning worker reads or writes it.
type prefetchSession struct {
	sweep []extent
	held  []*cacheEntry

	scan     []extent
	scanHeld [2][]*cacheEntry
	buf      []byte
}

// releaseScan drops the entries a scan still holds — the spans it requested
// and did not decode, when it stopped early — keeping the slices.
func (s *prefetchSession) releaseScan() {
	for k := range s.scanHeld {
		clear(s.scanHeld[k])
		s.scanHeld[k] = s.scanHeld[k][:0]
	}
}

// session returns the worker's Request buffers, building them on first use.
func (g *Graph[V]) session(scratch *graph.Scratch[V]) *prefetchSession {
	sess, _ := scratch.Prefetch.(*prefetchSession)
	if sess == nil {
		sess = &prefetchSession{}
		scratch.Prefetch = sess
	}
	return sess
}

// requestRanges sorts exts by offset, merges them into ranges across the
// prefetcher's gap and requests each range's blocks from the table,
// appending their entries to held; exts[k].k is where the entry of extent
// k's first block sits there. The prefetcher counts the sweep and its reads.
func (g *Graph[V]) requestRanges(exts []extent, held []*cacheEntry) []*cacheEntry {
	p := g.prefetch
	slices.SortFunc(exts, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	p.windows.Add(1)
	p.vertices.Add(uint64(len(exts)))
	bs := g.table.blockSize
	for i := 0; i < len(exts); {
		j, end := coalesce(exts, i, int64(p.cfg.MaxGap), math.MaxInt64)
		lo := exts[i].off / bs
		for k := i; k < j; k++ {
			exts[k].k = len(held) + int(exts[k].off/bs-lo)
		}
		var off, n int64
		held, off, n = g.table.request(held, lo, (end-1)/bs+1)
		if n == 0 {
			p.dedupSpans.Add(1)
			p.dedupBytes.Add(uint64(end - exts[i].off))
		} else {
			p.spans.Add(1)
			p.spanBytes.Add(uint64(n))
			p.gapBytes.Add(uint64(n - wanted(exts[i:j], off, off+n)))
		}
		i = j
	}
	return held
}

// heldRead is one vertex's read started by Request: the entries of the
// blocks under its extent, held so that their bytes outlive the cache's
// eviction and the zero-budget table's forgetting until Neighbors decodes
// them — or, for an exact read (requestExact), the one entry holding just
// the extent. live is cleared when Neighbors has decoded it, or when Request
// reuses a read whose visitor never did; p, when set, is the prefetcher that
// counted the read and counts it consumed or abandoned.
type heldRead struct {
	table *CachedStore
	p     *Prefetcher
	v     uint64
	off   int64
	n     int
	held  []*cacheEntry
	exact bool
	live  bool
}

// pending returns the ready channel of the first fetch the read is still
// under, nil once every byte has landed, and subscribes to to that fetch under
// the lock land marks it done under: to is posted the landing or sees it here.
//
//lint:hotpath
func (r *heldRead) pending(to graph.Completions) <-chan struct{} {
	for _, e := range r.held {
		if to != nil && !e.done.Load() {
			e.mu.Lock()
			if !e.done.Load() && !slices.Contains(e.subs, to) {
				e.subs = append(e.subs, to)
			}
			e.mu.Unlock()
		}
		if !e.done.Load() {
			return e.ready
		}
	}
	return nil
}

// take returns the extent once the fetches under it have landed, and lets go
// of the entries: the read is consumed.
func (r *heldRead) take(buf *[]byte) ([]byte, error) {
	var b []byte
	var err error
	if e := r.held[0]; r.exact {
		<-e.ready
		b, err = e.data, e.err
	} else {
		b, err = gather(r.held, r.table.blockSize, r.off, r.n, buf)
	}
	if r.p != nil {
		r.p.consumed.Add(1)
	}
	r.release()
	return b, err
}

// release drops the read's entries, keeping the slice for its next use.
func (r *heldRead) release() {
	clear(r.held)
	r.held, r.live = r.held[:0], false
}

// Request implements graph.BatchAdjacency: the extents of vs merge into
// ranges across the prefetcher's gap, each range's blocks are requested from
// the table once — a resident block is held at once, an absent one joins a
// fetch in flight or starts one on the I/O pool, with the miss's readahead —
// and each vertex's read holds the entries of its own blocks out of its
// range's, where the Neighbors call for it finds them without a second claim.
// A graph without a prefetcher (a bare zero-budget table: Open gives every
// CachedStore one) requests each extent alone instead, as its synchronous
// read would (CachedStore.read), so a sweep's exact reads are in flight
// together. The prefetcher counts a sweep of more than one extent as a
// window, and its reads as consumed when Neighbors decodes them, or abandoned
// when Request reuses one whose visitor never did; a returned wait's fetch
// posts it to to. full reports the table at its bound on asynchronous reads
// (CachedStore.full). A sweep of resident extents allocates nothing once its
// reads are reused.
func (g *Graph[V]) Request(vs []V, reads []any, waits []<-chan struct{}, to graph.Completions, scratch *graph.Scratch[V]) bool {
	c := g.table
	exact := g.prefetch == nil
	sess := g.session(scratch)
	exts := sess.sweep[:0]
	for i, v := range vs {
		r, _ := reads[i].(*heldRead)
		if r != nil && r.live && r.table == c && r.v == uint64(v) {
			waits[i] = r.pending(to) // its own read: re-checked, not requested
			continue
		}
		waits[i] = nil
		if r == nil {
			r = &heldRead{}
			reads[i] = r
		} else if r.live { // its visitor was dropped before decoding it
			if r.p != nil {
				r.p.abandoned.Add(1)
			}
			r.release()
		}
		off, n := g.out.extent(v)
		if n == 0 || (off+int64(n)-1)/c.blockSize >= c.maxBlock {
			continue // Neighbors reads, and reports, it
		}
		r.table, r.p, r.v, r.off, r.n, r.exact, r.live = c, nil, uint64(v), off, n, exact, true
		if exact {
			r.held = append(r.held, c.requestExact(off, n))
			waits[i] = r.pending(to)
			continue
		}
		exts = append(exts, extent{v: uint64(i), off: off, n: n})
	}
	bs := c.blockSize
	sess.sweep = exts
	switch len(exts) {
	case 0:
	case 1: // the one range is the extent's blocks: into its read
		e := exts[0]
		r := reads[e.v].(*heldRead)
		r.held, _, _ = c.request(r.held, e.off/bs, (e.off+int64(e.n)-1)/bs+1)
		waits[e.v] = r.pending(to)
	default:
		held := g.requestRanges(exts, sess.held[:0])
		for _, e := range exts {
			r := reads[e.v].(*heldRead)
			r.held = append(r.held, held[e.k:e.k+int((e.off+int64(e.n)-1)/bs-e.off/bs)+1]...)
			r.p = g.prefetch
			waits[e.v] = r.pending(to)
		}
		clear(held)
		sess.held = held[:0]
	}
	return c.full()
}

// The semi-external graph is the repository's only BatchAdjacency back end.
var _ graph.BatchAdjacency[uint32] = (*Graph[uint32])(nil)
