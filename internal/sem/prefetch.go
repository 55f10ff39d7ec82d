package sem

// This file is the semi-external asynchronous I/O pipeline. The engine's
// SemiSort key already arranges for each worker to pop runs of id-adjacent
// vertices (§IV-C); their adjacency extents therefore sit near each other in
// the on-device edge region. A worker announces its next pop-window of
// vertices through NeighborsBatch; the window's extents merge into ranges
// while each next one starts within MaxGap bytes of the running end, and every
// range becomes one asynchronous [lo, hi) block request on the graph's table
// (cache.go). A block the table already holds — under another reader's fetch,
// or cached — is shared; the rest are read in one device operation on the
// table's bounded I/O pool while the worker starts visiting. On ssd.Device a
// range pays one latency term plus bandwidth instead of k latencies — the
// request-merging trick of FlashGraph-class I/O layers — a block several
// workers' windows want is read once, and the visit of the first window
// vertex overlaps the reads of the rest.
//
// Ownership and correctness: a window is popped from one worker's queue, so
// every vertex in it is owned by that worker (the engine's hash routing), and
// the session holding the window's block entries lives in that worker's
// scratch — no other worker ever touches it. A fetch publishes to its readers
// only through its ready channel (close happens-after the bytes and the error
// are written). Visiting in pop-window order rather than strict one-at-a-time
// heap order is safe for the label-correcting kernels because every
// relaxation is monotone: reordering costs at most extra corrections, never
// wrong labels.

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultPrefetchGap is the coalescing gap of every raw-device mount and of
// the bottom-up scan. It is sized to bridge the ownership stride:
// with W workers each owning a pseudorandom 1/W of the frontier, consecutive
// extents in one worker's semi-sorted window sit ~W x degree x recordSize
// bytes apart (~16 KiB at the repository defaults of 128 workers, degree 16,
// 4-8 byte records). 32 KiB spans that stride most of the time, and the
// bridged bytes cost only the device's bandwidth term (~160 µs on the
// slowest profile) against the whole latency term they save (3 ms there).
const DefaultPrefetchGap = 32 << 10

// prefetchIOWorkers bounds a table's concurrent asynchronous fetches — window
// ranges and scan spans. It sits above every simulated profile's channel
// count (20 at most), so the bound never throttles the device below its own
// parallelism; it exists to keep the goroutine and buffer fan-out finite when
// hundreds of traversal workers window simultaneously.
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
	Windows   uint64 // NeighborsBatch calls that requested at least one range
	Vertices  uint64 // nonzero-degree vertices accepted into windows
	Spans     uint64 // device reads the window ranges issued
	SpanBytes uint64 // bytes those reads transferred
	// GapBytes is the part of SpanBytes no window vertex asked for: the gaps
	// bridged between near-contiguous extents, and each read's rounding out to
	// whole blocks.
	GapBytes  uint64
	Consumed  uint64 // prefetched adjacency lists delivered to Neighbors
	Abandoned uint64 // prefetched lists dropped unread (stale by visit time)

	// Cross-worker sharing through the table: DedupSpans counts the window
	// ranges that issued no read of their own, every block of theirs being
	// under another reader's fetch already (or cached), and DedupBytes the
	// bytes those ranges spanned.
	DedupSpans uint64
	DedupBytes uint64

	// Bottom-up scan-phase counters (ScanInEdges): the device reads its spans
	// issued and the bytes they transferred, disjoint from the window
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

// Prefetcher is a graph's window configuration and counters; the reads are
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

// extent is a vertex's adjacency byte range. In a window, k is where the
// entry of its first block sits in the session's held list, and done marks
// it consumed, so a vertex popped twice in one window consumes its own.
type extent struct {
	v    uint64
	off  int64
	n    int
	k    int
	done bool
}

// coalesce merges the run of offset-sorted extents starting at exts[i] into
// one range — the one place extents become device requests, shared by the
// pop-window (NeighborsBatch) and the bottom-up scan (ScanInEdges). A
// following extent joins while it starts within maxGap bytes of the range's
// end and the range stays within maxBytes; duplicate or overlapping extents
// (the same vertex popped twice in one window) fold into the same bytes. The
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

// prefetchSession is the per-worker window state, stored in the worker's
// graph.Scratch.Prefetch. Only the owning worker reads or writes it.
type prefetchSession struct {
	p    *Prefetcher
	exts []extent // the current window, in offset order
	// held is the window's block entries, range after range. Holding them
	// keeps their bytes alive until Neighbors decodes; the table, on the raw
	// device, keeps nothing itself.
	held []*cacheEntry
}

// take hands v's window bytes to the caller once the reads under them
// complete. ok is false when v has no live extent in the current window, in
// which case the caller reads synchronously. A read error is surfaced to the
// consumer, consistent with the synchronous path's failure policy (no silent
// retry).
//
//lint:hotpath
func (s *prefetchSession) take(v uint64, blockSize int64, buf *[]byte) (block []byte, err error, ok bool) {
	for i := range s.exts {
		e := &s.exts[i]
		if e.done || e.v != v {
			continue
		}
		e.done = true
		s.p.consumed.Add(1)
		block, err = gather(s.held[e.k:], blockSize, e.off, e.n, buf)
		return block, err, true
	}
	return nil, nil, false
}

// EnablePrefetch makes the graph service NeighborsBatch windows: each window's
// extents merge into ranges that become asynchronous block requests on the
// graph's table, and its in-edge scans double-buffer through the same call.
// Without it NeighborsBatch is a no-op and every read is synchronous. Call
// once, before the traversal starts.
func (g *Graph[V]) EnablePrefetch(cfg PrefetchConfig) {
	cfg.normalize()
	g.prefetch = &Prefetcher{cfg: cfg}
}

// NeighborsBatch implements graph.BatchAdjacency: it announces the worker's
// next pop-window of vertices, merges their adjacency extents into ranges and
// requests each range's blocks from the table. Subsequent Neighbors calls on
// the same scratch decode from the entries the session holds, without
// copying unless an extent runs past its fetch; a window's entries still
// unconsumed when the next one arrives are abandoned (their reads complete,
// and nobody holds the bytes).
func (g *Graph[V]) NeighborsBatch(vs []V, scratch *graph.Scratch[V]) {
	p := g.prefetch
	if p == nil {
		return
	}
	sess, _ := scratch.Prefetch.(*prefetchSession)
	if sess == nil {
		sess = &prefetchSession{p: p}
		scratch.Prefetch = sess
	}
	for i := range sess.exts {
		if !sess.exts[i].done {
			p.abandoned.Add(1)
		}
	}
	clear(sess.held)
	exts, held := sess.exts[:0], sess.held[:0]
	for _, v := range vs {
		// The extent is a record span on v1 stores and a compressed block on
		// v2 — the ranges and the uncopied handoff below are format-blind.
		if off, n := g.out.extent(v); n > 0 {
			exts = append(exts, extent{v: uint64(v), off: off, n: n})
		}
	}
	if len(exts) > 0 {
		slices.SortFunc(exts, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
		p.windows.Add(1)
		p.vertices.Add(uint64(len(exts)))
	}
	bs := g.table.blockSize
	for i := 0; i < len(exts); {
		j, end := coalesce(exts, i, int64(p.cfg.MaxGap), math.MaxInt64)
		lo := exts[i].off / bs
		for k := i; k < j; k++ {
			exts[k].k = len(held) + int(exts[k].off/bs-lo)
		}
		var off, n int64
		if held, off, n = g.table.request(held, lo, (end-1)/bs+1); n == 0 {
			p.dedupSpans.Add(1)
			p.dedupBytes.Add(uint64(end - exts[i].off))
		} else {
			p.spans.Add(1)
			p.spanBytes.Add(uint64(n))
			p.gapBytes.Add(uint64(n - wanted(exts[i:j], off, off+n)))
		}
		i = j
	}
	sess.exts, sess.held = exts, held
}

// The semi-external graph is the repository's only BatchAdjacency back end.
var _ graph.BatchAdjacency[uint32] = (*Graph[uint32])(nil)
