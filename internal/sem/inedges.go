package sem

// This file is the semi-external reverse-adjacency read path: serving
// in-edges from the on-flash in-edge section (flagInEdges) or, for symmetric
// graphs (flagSymmetric), from the edge region itself. Its centerpiece is
// ScanInEdges, the storage side of the bottom-up traversal phase — instead of
// the pop-window's per-vertex random reads it walks a contiguous vertex-id
// range in storage order and coalesces the needed extents into large
// sequential spans, which is precisely the access pattern the paper's
// semi-external model rewards: the RAM-resident in-edge index decides what to
// read, and the device sees a handful of megabyte-scale streams instead of a
// frontier's worth of scattered records.

import (
	"fmt"

	"repro/internal/graph"
)

// scanSpanBytes caps one bottom-up scan read. A span this size amortizes the
// device latency term thousands of times over while keeping the double
// buffer's memory footprint bounded (two spans per scanning worker).
const scanSpanBytes = 1 << 20

// errNoInSection reports a reverse-adjacency call on a store without the
// capability. Callers should gate on HasInEdges (via graph.InEdges) instead
// of relying on this error.
var errNoInSection = fmt.Errorf("sem: store carries no in-edge section (write with -symmetric or an in-edge section to enable bottom-up traversal)")

// HasInEdges reports whether the store can serve reverse adjacency — the
// dynamic side of the graph.InAdjacency capability: a symmetric file serves
// in-edges from its edge region, otherwise a dedicated in-edge section must
// be present.
func (g *Graph[V]) HasInEdges() bool { return g.in != nil }

// Symmetric reports whether the file was written with the symmetric flag
// (out-adjacency is its own transpose).
func (g *Graph[V]) Symmetric() bool { return g.symmetric }

// InDegree implements graph.InAdjacency from the RAM-resident in-edge index
// (or the forward index for symmetric files). Zero for stores without
// reverse capability.
//
//lint:hotpath
func (g *Graph[V]) InDegree(v V) int {
	if g.in == nil {
		return 0
	}
	return g.in.degree(v)
}

// InNeighbors implements graph.InAdjacency with one positional read per call,
// through the same routine as Neighbors. Symmetric files answer from the edge
// region (and may therefore consume a prefetched pop-window span); in-edge
// sections read synchronously — bottom-up phases should use ScanInEdges,
// whose sequential spans are the whole point.
func (g *Graph[V]) InNeighbors(v V, scratch *graph.Scratch[V]) ([]V, error) {
	if g.in == nil {
		return nil, errNoInSection
	}
	if scratch == nil {
		scratch = &graph.Scratch[V]{}
	}
	in, _, err := g.neighbors(g.in, v, scratch)
	return in, err
}

// ScanInEdges implements graph.InScanner: walk [lo, hi) in storage order,
// coalesce the in-edge extents of needed vertices into sequential spans
// (bridging gaps up to the prefetcher's MaxGap, or DefaultPrefetchGap when
// prefetch is disabled, capped at scanSpanBytes per read), and visit each
// vertex from its span's bytes. With a prefetcher attached the spans are
// double-buffered: span k+1 is an asynchronous block request on the table —
// the pop window's call — while span k decodes, so the device and the CPU
// overlap with megabyte streams instead of per-vertex records, and blocks
// another reader has under I/O are shared; scan reads are tallied in
// PrefetchStats.ScanSpans/ScanBytes. Without one each span is read through the
// table when its turn comes.
func (g *Graph[V]) ScanInEdges(lo, hi V, need func(V) bool, visit func(v V, in []V) error, scratch *graph.Scratch[V]) error {
	if g.in == nil {
		return errNoInSection
	}
	if scratch == nil {
		scratch = &graph.Scratch[V]{}
	}
	if uint64(hi) > g.n {
		hi = V(g.n)
	}
	if lo >= hi {
		return nil
	}

	// Gather the needed extents in storage order. need is consulted here,
	// before any device I/O, per the InScanner contract; vertex ids ascend and
	// both index layouts are monotone, so the extents arrive pre-sorted.
	exts := make([]extent, 0, 256)
	for v := lo; v < hi; v++ {
		if !need(v) {
			continue
		}
		off, nb := g.in.extent(v)
		if nb == 0 {
			continue
		}
		exts = append(exts, extent{v: uint64(v), off: off, n: nb})
	}
	if len(exts) == 0 {
		return nil
	}

	maxGap := int64(DefaultPrefetchGap)
	if g.prefetch != nil {
		maxGap = int64(g.prefetch.cfg.MaxGap)
	}

	// Merge into sequential spans, each capped at scanSpanBytes.
	type span struct {
		i, j int
		end  int64
		held []*cacheEntry // its blocks, once requested
	}
	spans := make([]span, 0, 16)
	for i := 0; i < len(exts); {
		j, end := coalesce(exts, i, maxGap, scanSpanBytes)
		spans = append(spans, span{i: i, j: j, end: end})
		i = j
	}
	c, p := g.table, g.prefetch
	request := func(s *span) {
		var n int64
		s.held, _, n = c.request(nil, exts[s.i].off/c.blockSize, (s.end-1)/c.blockSize+1)
		if n > 0 {
			p.scanSpans.Add(1)
			p.scanBytes.Add(uint64(n))
		}
	}
	if p != nil {
		request(&spans[0])
	}
	var buf []byte
	for k := range spans {
		s := &spans[k]
		if p != nil && k+1 < len(spans) {
			request(&spans[k+1])
		}
		off, n := exts[s.i].off, int(s.end-exts[s.i].off)
		var b []byte
		var err error
		if s.held != nil {
			b, err = gather(s.held, c.blockSize, off, n, &buf)
			s.held = nil // the bytes go with the span
		} else {
			b, err = c.read(off, n, &buf, false)
		}
		if err != nil {
			return fmt.Errorf("sem: scan in-edges at %d: %w", off, err)
		}
		// The decode target buffer is cap-guarded in scratch and the blocks
		// alias the span's bytes: no per-edge allocation. A symmetric scan
		// reads the edge region, whose records may carry weights; they decode
		// into scratch and are dropped here.
		for _, e := range exts[s.i:s.j] {
			in, _, err := g.in.decode(b[e.off-off:e.off-off+int64(e.n)], V(e.v), scratch)
			if err != nil {
				return err
			}
			if err := visit(V(e.v), in); err != nil {
				return err
			}
		}
	}
	return nil
}

// The semi-external store is direction-capable when its file carries the
// symmetric flag or an in-edge section; HasInEdges gates the static
// interface below at runtime (see graph.InEdges).
var _ graph.InScanner[uint32] = (*Graph[uint32])(nil)
