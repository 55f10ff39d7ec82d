package sem

// This file is the semi-external asynchronous I/O pipeline. The engine's
// SemiSort key already arranges for each worker to pop runs of id-adjacent
// vertices (§IV-C); their adjacency extents therefore sit near each other in
// the on-device edge region. The Prefetcher exploits that structure: a worker
// announces its next pop-window of vertices through NeighborsBatch, the
// prefetcher merges id-contiguous (or near-contiguous, within MaxGap bytes)
// extents into single coalesced ReadAt spans, and a bounded pool of I/O
// goroutines services the spans while the worker starts visiting. On
// ssd.Device a coalesced span pays one latency term plus bandwidth instead of
// k latencies — the request-merging trick of FlashGraph-class I/O layers —
// and the visit of the first window vertex overlaps the in-flight reads of
// the rest.
//
// Ownership and correctness: a window is popped from one worker's queue, so
// every vertex in it is owned by that worker (the engine's hash routing), and
// the session recording in-flight spans lives in that worker's scratch — no
// other worker ever touches it. The I/O goroutines communicate with the owner
// only through each span's ready channel (close happens-after the buffer and
// error are written). Visiting in pop-window order rather than strict
// one-at-a-time heap order is safe for the label-correcting kernels because
// every relaxation is monotone: reordering costs at most extra corrections,
// never wrong labels.

import (
	"cmp"
	"math"
	"slices"
	"sync"
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

// prefetchIOWorkers bounds concurrent span reads per graph. It sits above
// every simulated profile's channel count (20 at most), so the bound never
// throttles the device below its own parallelism; it exists to keep the
// goroutine and buffer fan-out finite when hundreds of traversal workers
// window simultaneously.
const prefetchIOWorkers = 32

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
	Windows   uint64 // NeighborsBatch calls that issued at least one span
	Vertices  uint64 // nonzero-degree vertices accepted into windows
	Spans     uint64 // coalesced device reads issued
	SpanBytes uint64 // bytes requested by those reads, gap bytes included
	GapBytes  uint64 // bytes read only to bridge near-contiguous extents
	Consumed  uint64 // prefetched adjacency lists delivered to Neighbors
	Abandoned uint64 // prefetched lists dropped unread (stale by visit time)

	// Cross-worker span dedup (the in-flight span table): windows whose
	// coalesced range was already covered by another worker's in-flight read
	// share that read's buffer instead of issuing their own device op.
	DedupSpans uint64 // device reads avoided by sharing an in-flight span
	DedupBytes uint64 // bytes those avoided reads would have transferred

	// Bottom-up scan-phase counters (ScanInEdges): sequential in-edge section
	// reads, disjoint from the pop-window span counters above.
	ScanSpans uint64 // sequential spans issued by bottom-up scans
	ScanBytes uint64 // bytes read by those spans, bridged gaps included
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

// Prefetcher coalesces and asynchronously services adjacency read windows
// for one semi-external graph. Safe for concurrent use by many workers; all
// shared state is the I/O semaphore and the atomic counters.
type Prefetcher struct {
	cfg PrefetchConfig
	sem chan struct{} // bounds in-flight span reads

	// The in-flight span table (cross-worker dedup): every issued span is
	// registered from issue to read completion, and a worker whose coalesced
	// range is fully covered by a registered span shares that span's buffer —
	// one device read, shared delivery via the span's ready channel — instead
	// of issuing a duplicate. Guarded by mu; the table holds only in-flight
	// reads, so the linear scan stays short (bounded by the I/O fan-out).
	mu       sync.Mutex
	inflight []inflightSpan

	windows    atomic.Uint64
	vertices   atomic.Uint64
	spans      atomic.Uint64
	spanBytes  atomic.Uint64
	gapBytes   atomic.Uint64
	consumed   atomic.Uint64
	abandoned  atomic.Uint64
	dedupSpans atomic.Uint64
	dedupBytes atomic.Uint64
	scanSpans  atomic.Uint64
	scanBytes  atomic.Uint64
}

// inflightSpan is one dedup-table entry: the byte range an issued span read
// covers.
type inflightSpan struct {
	off, end int64
	sp       *span
}

// share consults the dedup table for an in-flight span fully covering
// [off, end): on a hit the covering span is returned for shared delivery; on
// a miss sp is registered for the range (the caller issues its read and
// unregister runs on completion) and nil is returned. Partial overlaps both
// read — splitting a span across two buffers would cost more coordination
// than the duplicated bytes.
func (p *Prefetcher) share(off, end int64, sp *span) *span {
	p.mu.Lock()
	for i := range p.inflight {
		if f := &p.inflight[i]; f.off <= off && f.end >= end {
			// Copy the span pointer before unlocking: f aliases a table slot
			// that a concurrent unregister may compact the moment the lock
			// drops.
			found := f.sp
			p.mu.Unlock()
			p.dedupSpans.Add(1)
			p.dedupBytes.Add(uint64(end - off))
			return found
		}
	}
	p.inflight = append(p.inflight, inflightSpan{off: off, end: end, sp: sp})
	p.mu.Unlock()
	return nil
}

// unregister drops a completed span from the dedup table. A worker that
// found the span just before completion still shares it safely: buf and err
// are immutable after ready closes.
func (p *Prefetcher) unregister(sp *span) {
	p.mu.Lock()
	for i := range p.inflight {
		if p.inflight[i].sp == sp {
			last := len(p.inflight) - 1
			p.inflight[i] = p.inflight[last]
			p.inflight = p.inflight[:last]
			break
		}
	}
	p.mu.Unlock()
}

// normalize clamps the gap to its working range.
func (c *PrefetchConfig) normalize() {
	if c.MaxGap < 0 {
		c.MaxGap = 0
	}
}

func newPrefetcher(cfg PrefetchConfig) *Prefetcher {
	cfg.normalize()
	return &Prefetcher{cfg: cfg, sem: make(chan struct{}, prefetchIOWorkers)}
}

// Stats snapshots the counters.
func (p *Prefetcher) Stats() PrefetchStats {
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

// span is one coalesced device read in flight. err and buf contents are
// published by the close of ready.
type span struct {
	off   int64
	buf   []byte
	ready chan struct{}
	err   error
}

// pfEntry maps one window vertex onto its byte range within a span. Entries
// belong to exactly one worker's session; done marks consumption so a
// duplicate vertex in a window consumes its own entry.
type pfEntry struct {
	v    uint64
	sp   *span
	lo   int // byte offset of the vertex's records within sp.buf
	n    int // record bytes of the vertex
	done bool
}

// extent is a vertex's adjacency byte range before coalescing.
type extent struct {
	v   uint64
	off int64
	n   int
}

// coalesce merges the run of offset-sorted extents starting at exts[i] into
// one span — the one place extents become device requests, shared by the
// pop-window (NeighborsBatch) and the bottom-up scan (ScanInEdges). A
// following extent joins while it starts within maxGap bytes of the span's
// end and the span stays within maxBytes; duplicate or overlapping extents
// (the same vertex popped twice in one window) fold into the same span bytes.
// The span is exts[i:j] over [exts[i].off, end), of which gap bytes belong
// to no extent and are read only to bridge.
//
//lint:hotpath
func coalesce(exts []extent, i int, maxGap, maxBytes int64) (j int, end, gap int64) {
	start := exts[i].off
	end = start + int64(exts[i].n)
	for j = i + 1; j < len(exts); j++ {
		e := exts[j].off + int64(exts[j].n)
		if exts[j].off > end+maxGap || e-start > maxBytes {
			break
		}
		if exts[j].off > end {
			gap += exts[j].off - end
		}
		if e > end {
			end = e
		}
	}
	return j, end, gap
}

// prefetchSession is the per-worker window state, stored in the worker's
// graph.Scratch.Prefetch. Only the owning worker reads or writes it; the I/O
// pool publishes results through span.ready alone.
type prefetchSession struct {
	p       *Prefetcher
	entries []pfEntry
	exts    []extent // reused window scratch
}

// take hands v's prefetched records to the caller, blocking until the span
// read completes. prefetched is false when v has no live entry in the current
// window, in which case the caller reads synchronously. A span read error is
// surfaced to the consumer, consistent with the synchronous path's failure
// policy (no silent retry).
//
//lint:hotpath
func (s *prefetchSession) take(v uint64) (block []byte, err error, prefetched bool) {
	for i := range s.entries {
		e := &s.entries[i]
		if e.done || e.v != v {
			continue
		}
		e.done = true
		s.p.consumed.Add(1)
		<-e.sp.ready
		if e.sp.err != nil {
			return nil, e.sp.err, true
		}
		return e.sp.buf[e.lo : e.lo+e.n], nil, true
	}
	return nil, nil, false
}

// read services one span on the bounded I/O pool, then retires it from the
// dedup table.
//
//lint:hotpath
func (p *Prefetcher) read(store Store, sp *span) {
	p.sem <- struct{}{}
	_, err := store.ReadAt(sp.buf, sp.off)
	<-p.sem
	sp.err = err
	close(sp.ready)
	p.unregister(sp)
}

// EnablePrefetch attaches an asynchronous prefetcher to the graph. After the
// call the graph services NeighborsBatch windows with coalesced span reads;
// without it NeighborsBatch is a no-op and traversal behaves exactly as
// before. Call once, before the traversal starts.
func (g *Graph[V]) EnablePrefetch(cfg PrefetchConfig) {
	g.prefetch = newPrefetcher(cfg)
}

// PrefetchStats reports the prefetcher's counters; zero when prefetch was
// never enabled.
func (g *Graph[V]) PrefetchStats() PrefetchStats {
	if g.prefetch == nil {
		return PrefetchStats{}
	}
	return g.prefetch.Stats()
}

// NeighborsBatch implements graph.BatchAdjacency: it announces the worker's
// next pop-window of vertices, coalesces their adjacency extents into spans,
// and starts asynchronous reads. Subsequent Neighbors calls on the same
// scratch consume the completed reads without copying; entries still
// unconsumed when the next window arrives are abandoned (their reads complete
// harmlessly into their own buffers).
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
	for i := range sess.entries {
		if !sess.entries[i].done {
			p.abandoned.Add(1)
		}
	}
	sess.entries = sess.entries[:0]

	exts := sess.exts[:0]
	for _, v := range vs {
		// The extent is a record span on v1 stores and a compressed block on
		// v2 — the coalescing and zero-copy handoff below are format-blind.
		off, n := g.out.extent(v)
		if n == 0 {
			continue
		}
		exts = append(exts, extent{v: uint64(v), off: off, n: n})
	}
	sess.exts = exts
	if len(exts) == 0 {
		return
	}
	slices.SortFunc(exts, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	p.windows.Add(1)
	p.vertices.Add(uint64(len(exts)))

	for i := 0; i < len(exts); {
		j, end, gap := coalesce(exts, i, int64(p.cfg.MaxGap), math.MaxInt64)
		start := exts[i].off
		// Cross-worker dedup: when another worker's in-flight span already
		// covers this range, share its buffer and ready channel instead of
		// issuing a duplicate device read. The buffer is only allocated when
		// this worker actually issues.
		sp := &span{off: start, ready: make(chan struct{})}
		use := sp
		if shared := p.share(start, end, sp); shared != nil {
			use = shared
		}
		for k := i; k < j; k++ {
			sess.entries = append(sess.entries, pfEntry{
				v:  exts[k].v,
				sp: use,
				lo: int(exts[k].off - use.off),
				n:  exts[k].n,
			})
		}
		if use == sp {
			sp.buf = make([]byte, end-start)
			p.spans.Add(1)
			p.spanBytes.Add(uint64(len(sp.buf)))
			p.gapBytes.Add(uint64(gap))
			go p.read(g.store, sp)
		}
		i = j
	}
}

// The semi-external graph is the repository's only BatchAdjacency back end.
var _ graph.BatchAdjacency[uint32] = (*Graph[uint32])(nil)
