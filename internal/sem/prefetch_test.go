package sem

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
)

// prefetchFixture is a 4-vertex unweighted graph with known extents:
// deg(0)=2, deg(1)=1, deg(2)=3, deg(3)=0. Unweighted uint32 records are
// 4 bytes, so the edge region is [v0: 0..8) [v1: 8..12) [v2: 12..24).
func prefetchFixture(t *testing.T) *graph.CSR[uint32] {
	t.Helper()
	b := graph.NewBuilder[uint32](4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(2, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withBlocks puts a zero-budget table of blockSize-byte blocks under sg, so
// that a test can reason about its ranges in bytes.
func withBlocks(sg *Graph[uint32], blockSize int64) {
	sg.table = newCachedStore(sg.store, blockSize, 0, sg.table.size, 1)
}

func checkNeighbors(t *testing.T, sg *Graph[uint32], g *graph.CSR[uint32], v uint32, sc *graph.Scratch[uint32]) {
	t.Helper()
	got, _, err := sg.Neighbors(v, sc)
	if err != nil {
		t.Fatalf("Neighbors(%d): %v", v, err)
	}
	want, _, err := g.Neighbors(v, &graph.Scratch[uint32]{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestPrefetchCoalescesWithinGap(t *testing.T) {
	g := prefetchFixture(t)
	back := writeToMem(t, g)
	dev := fastDevice(back)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	// Window {0, 2} skips vertex 1: the extents sit 4 bytes apart. MaxGap 4
	// bridges them into one span whose gap bytes are exactly deg(1) records
	// (blocks of one record round nothing).
	withBlocks(sg, 4)
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 4})
	sc := &graph.Scratch[uint32]{}
	base := dev.Stats().Reads
	sg.NeighborsBatch([]uint32{0, 2}, sc)
	checkNeighbors(t, sg, g, 0, sc)
	checkNeighbors(t, sg, g, 2, sc)
	st := sg.PrefetchStats()
	if st.Windows != 1 || st.Vertices != 2 || st.Spans != 1 {
		t.Fatalf("stats = %+v, want 1 window, 2 vertices, 1 span", st)
	}
	if st.GapBytes != 4 {
		t.Fatalf("gap bytes = %d, want 4 (vertex 1's records)", st.GapBytes)
	}
	if st.SpanBytes != 24 {
		t.Fatalf("span bytes = %d, want 24 (whole edge region)", st.SpanBytes)
	}
	if st.Consumed != 2 {
		t.Fatalf("consumed = %d, want 2", st.Consumed)
	}
	if got := dev.Stats().Reads - base; got != 1 {
		t.Fatalf("device reads = %d, want 1 coalesced span", got)
	}
}

func TestPrefetchSplitsBeyondGap(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	// MaxGap 3 cannot bridge the 4-byte hole left by vertex 1: two spans,
	// no gap bytes read.
	withBlocks(sg, 4)
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 3})
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch([]uint32{0, 2}, sc)
	checkNeighbors(t, sg, g, 0, sc)
	checkNeighbors(t, sg, g, 2, sc)
	st := sg.PrefetchStats()
	if st.Spans != 2 || st.GapBytes != 0 {
		t.Fatalf("stats = %+v, want 2 spans and 0 gap bytes", st)
	}
	if st.SpanBytes != 20 {
		t.Fatalf("span bytes = %d, want 20 (both extents, no hole)", st.SpanBytes)
	}
}

func TestPrefetchDuplicateVertexInWindow(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 0})
	sc := &graph.Scratch[uint32]{}
	// The same vertex twice: overlapping extents fold into one span, and
	// each Neighbors call consumes its own entry.
	sg.NeighborsBatch([]uint32{2, 2}, sc)
	checkNeighbors(t, sg, g, 2, sc)
	checkNeighbors(t, sg, g, 2, sc)
	st := sg.PrefetchStats()
	if st.Spans != 1 || st.Vertices != 2 {
		t.Fatalf("stats = %+v, want 1 span covering 2 window entries", st)
	}
	if st.Consumed != 2 || st.Abandoned != 0 {
		t.Fatalf("consumed=%d abandoned=%d, want 2/0", st.Consumed, st.Abandoned)
	}
}

func TestPrefetchAbandonsUnconsumedEntries(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 0})
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch([]uint32{0, 2}, sc)
	checkNeighbors(t, sg, g, 0, sc) // vertex 2's entry left unread
	sg.NeighborsBatch([]uint32{1}, sc)
	checkNeighbors(t, sg, g, 1, sc)
	st := sg.PrefetchStats()
	if st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
	if st.Consumed != 2 {
		t.Fatalf("consumed = %d, want 2", st.Consumed)
	}
	// A vertex whose entry was abandoned still reads synchronously.
	checkNeighbors(t, sg, g, 2, sc)
}

func TestPrefetchZeroDegreeAndEmptyWindows(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{})
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch(nil, sc)
	sg.NeighborsBatch([]uint32{3}, sc) // degree 0: no extent, no span
	st := sg.PrefetchStats()
	if st.Windows != 0 || st.Spans != 0 {
		t.Fatalf("stats = %+v, want no windows or spans issued", st)
	}
	if got, _, err := sg.Neighbors(3, sc); err != nil || len(got) != 0 {
		t.Fatalf("Neighbors(3) = %v, %v; want empty", got, err)
	}
}

func TestPrefetchSurfacesReadError(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 0})
	// Fail every device read issued after mounting: the span read error must
	// reach the Neighbors caller, matching the synchronous failure policy.
	sg.table.inner = &erroringStore{inner: sg.table.inner, after: 0}
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch([]uint32{0}, sc)
	if _, _, err := sg.Neighbors(0, sc); err == nil {
		t.Fatal("prefetched read error was swallowed")
	}
}

// TestPrefetchTraversalMatchesBaseline runs the full engine with the pipeline
// on, over a raw uncached device, and checks every kernel's results against
// the serial baselines.
func TestPrefetchTraversalMatchesBaseline(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := buildGraph(t, 400, 4000, weighted, 17)
		sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		sg.EnablePrefetch(PrefetchConfig{MaxGap: DefaultPrefetchGap})
		for _, cfg := range []core.Config{
			{Workers: 1, SemiSort: true, Prefetch: 4},
			{Workers: 16, SemiSort: true, Prefetch: 8},
			{Workers: 64, SemiSort: true, Prefetch: 64},
		} {
			if weighted {
				res, err := core.SSSP[uint32](sg, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := baseline.SerialDijkstra[uint32](g, 0)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if res.Dist[v] != want[v] {
						t.Fatalf("workers=%d prefetch=%d: dist[%d] = %d, want %d",
							cfg.Workers, cfg.Prefetch, v, res.Dist[v], want[v])
					}
				}
			} else {
				res, err := core.BFS[uint32](sg, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := baseline.SerialBFS[uint32](g, 0)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if res.Level[v] != want[v] {
						t.Fatalf("workers=%d prefetch=%d: level[%d] = %d, want %d",
							cfg.Workers, cfg.Prefetch, v, res.Level[v], want[v])
					}
				}
			}
		}
		if st := sg.PrefetchStats(); st.Windows == 0 || st.Consumed == 0 {
			t.Fatalf("weighted=%v: prefetcher never engaged: %+v", weighted, st)
		}
	}
}

// TestWindowsShareABlockInFlight has two workers' windows ask for extents in
// one device block that no single range covers. The first window's read is
// held in the device; the second must wait on it instead of reading the block
// again. Sharing by covered byte span — the table the block table replaced —
// reads the block twice.
func TestWindowsShareABlockInFlight(t *testing.T) {
	// Degree 2, unweighted: 8-byte extents, eight to a 64-byte block.
	b := graph.NewBuilder[uint32](64, false)
	for v := uint32(0); v < 64; v++ {
		b.AddEdge(v, (v+1)%64, 1)
		b.AddEdge(v, (v+7)%64, 1)
	}
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	data := writeToMem(t, g).Data
	probe, err := Open[uint32](bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// a and c = a+3 sit in one block with a's neighbours' extents between them.
	var a, c uint32
	var block int64
	for v := uint32(0); ; v++ {
		offA, _ := probe.out.extent(v)
		offC, nC := probe.out.extent(v + 3)
		if offA/gatedBlock == (offC+int64(nC)-1)/gatedBlock {
			a, c, block = v, v+3, offA/gatedBlock
			break
		}
	}
	dev := gatedOver(data, block*gatedBlock)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	withBlocks(sg, gatedBlock)
	sg.EnablePrefetch(PrefetchConfig{})

	var wg sync.WaitGroup
	worker := func(v uint32) {
		defer wg.Done()
		sc := &graph.Scratch[uint32]{}
		sg.NeighborsBatch([]uint32{v}, sc)
		got, _, err := sg.Neighbors(v, sc)
		want, _, _ := g.Neighbors(v, nil)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("Neighbors(%d) = %v, %v; want %v", v, got, err, want)
		}
	}
	entered, _ := dev.counts()
	wg.Add(2)
	go worker(a)
	waitFor(t, "the first window's read to reach the device", func() bool { n, _ := dev.counts(); return n == entered+1 })
	go worker(c)
	waitFor(t, "the second window's request", func() bool { st := sg.PrefetchStats(); return st.Spans+st.DedupSpans == 2 })
	dev.open()
	wg.Wait()
	if n, _ := dev.counts(); n != entered+1 || dev.reads[block] != 1 {
		t.Fatalf("%d device reads, block %d read %d times; want one read of it", n-entered, block, dev.reads[block])
	}
	if st := sg.PrefetchStats(); st.Spans != 1 || st.Consumed != 2 {
		t.Fatalf("stats %+v: want one read serving two windows", st)
	}
	assertQuiescent(t, sg.table)
}

// TestFailedBlockReachesEveryWindowReader fails every device read of one
// block. Every window vertex whose extent lies on it gets the error and no
// vertex gets wrong bytes; a traversal that needs the block returns the error,
// not labels, and leaves the table at rest with no goroutine behind; repaired,
// the same mount traverses to the serial baseline's levels.
func TestFailedBlockReachesEveryWindowReader(t *testing.T) {
	g := buildGraph(t, 400, 3200, false, 71)
	const src = 0
	want, err := baseline.SerialBFS[uint32](g, src)
	if err != nil {
		t.Fatal(err)
	}
	dev := gatedOver(writeToMem(t, g).Data, math.MaxInt64)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	withBlocks(sg, gatedBlock)
	sg.EnablePrefetch(PrefetchConfig{})
	goroutines := runtime.NumGoroutine()

	// The bad block lies under a vertex two levels from the source, which the
	// traversal must read.
	var bad int64 = -1
	for v, lvl := range want {
		if off, n := sg.out.extent(uint32(v)); lvl == 2 && n > 0 {
			bad = off / gatedBlock
			break
		}
	}
	if bad < 0 {
		t.Fatal("no vertex two levels from the source")
	}
	dev.bad.Store(bad)

	// One window: the vertices around the failed block, which share its read,
	// and every tenth vertex well away from it, which read apart.
	sc := &graph.Scratch[uint32]{}
	var window []uint32
	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		off, n := sg.out.extent(v)
		first, last := off/gatedBlock, (off+int64(n)-1)/gatedBlock
		if n > 0 && (first <= bad+1 && last >= bad-1 || v%10 == 0 && (last < bad-4 || first > bad+4)) {
			window = append(window, v)
		}
	}
	sg.NeighborsBatch(window, sc)
	onBad, fine := 0, 0
	for _, v := range window {
		off, n := sg.out.extent(v)
		got, _, err := sg.Neighbors(v, sc)
		if off/gatedBlock <= bad && bad <= (off+int64(n)-1)/gatedBlock {
			onBad++
			if !errors.Is(err, errBadBlock) {
				t.Errorf("vertex %d lies on the failed block: err = %v", v, err)
			}
		} else if err == nil {
			fine++
			if want, _, _ := g.Neighbors(v, nil); !slices.Equal(got, want) {
				t.Errorf("vertex %d: %v, want %v", v, got, want)
			}
		}
	}
	if onBad == 0 || fine == 0 {
		t.Fatalf("%d window vertices on the failed block, %d read whole: the test needs both", onBad, fine)
	}

	cfg := core.Config{Workers: 16, SemiSort: true, Prefetch: 16}
	if _, err := core.BFS[uint32](sg, src, cfg); !errors.Is(err, errBadBlock) {
		t.Fatalf("BFS over the failed block: err = %v", err)
	}
	assertQuiescent(t, sg.table)
	waitFor(t, "the traversal's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })

	dev.bad.Store(-1)
	res, err := core.BFS[uint32](sg, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Level[v] != want[v] {
			t.Fatalf("repaired: level[%d] = %d, want %d", v, res.Level[v], want[v])
		}
	}
	assertQuiescent(t, sg.table)
}

// TestRawTableKeepsNoBlock pins that the zero-budget table Open puts under a
// raw store installs nothing: a window's bytes live in the worker's session
// only, the next window drops them, and the table ends every traversal
// holding no block — so a raw-device mount keeps measuring the device.
func TestRawTableKeepsNoBlock(t *testing.T) {
	g := buildGraph(t, 400, 4000, false, 57)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: DefaultPrefetchGap})
	if sg.table.capBlocks != 0 || sg.table.blockSize != rawBlock {
		t.Fatalf("raw store under a table of %d blocks of %d bytes, want a zero-budget table of %d", sg.table.capBlocks, sg.table.blockSize, rawBlock)
	}
	sc := &graph.Scratch[uint32]{}
	window := []uint32{3, 40, 41, 200, 399}
	sg.NeighborsBatch(window, sc)
	for _, v := range window {
		checkNeighbors(t, sg, g, v, sc)
	}
	sess := sc.Prefetch.(*prefetchSession)
	if len(sess.held) == 0 {
		t.Fatal("the window holds no block entries")
	}
	assertQuiescent(t, sg.table)
	sg.NeighborsBatch([]uint32{window[0]}, sc)
	for _, e := range sess.held[len(sess.held):cap(sess.held)] {
		if e != nil {
			t.Fatalf("the next window still references block %d", e.id)
		}
	}
	if _, err := core.SSSP[uint32](sg, 0, core.Config{Workers: 16, SemiSort: true, Prefetch: 16}); err != nil {
		t.Fatal(err)
	}
	assertQuiescent(t, sg.table)
}
