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

// request starts the reads of vs in one Request call on sc, as an engine
// sweep or a BFS driver slice does, reusing reads when given, and returns
// the reads and their waits.
func request(sg *Graph[uint32], sc *graph.Scratch[uint32], vs []uint32, reads []any) ([]any, []<-chan struct{}) {
	if reads == nil {
		reads = make([]any, len(vs))
	}
	waits := make([]<-chan struct{}, len(vs))
	sg.Request(vs, reads, waits, nil, sc)
	return reads, waits
}

// checkRead visits v with the read Request started for it.
func checkRead(t *testing.T, sg *Graph[uint32], g *graph.CSR[uint32], v uint32, read any, sc *graph.Scratch[uint32]) {
	t.Helper()
	sc.Read = read
	checkNeighbors(t, sg, g, v, sc)
}

func TestPrefetchCoalescesWithinGap(t *testing.T) {
	g := prefetchFixture(t)
	back := writeToMem(t, g)
	dev := fastDevice(back)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep {0, 2} skips vertex 1: the extents sit 4 bytes apart. MaxGap 4
	// bridges them into one span whose gap bytes are exactly deg(1) records
	// (blocks of one record round nothing).
	withBlocks(sg, 4)
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 4})
	sc := &graph.Scratch[uint32]{}
	base := dev.Stats().Reads
	reads, _ := request(sg, sc, []uint32{0, 2}, nil)
	checkRead(t, sg, g, 0, reads[0], sc)
	checkRead(t, sg, g, 2, reads[1], sc)
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
	reads, _ := request(sg, sc, []uint32{0, 2}, nil)
	checkRead(t, sg, g, 0, reads[0], sc)
	checkRead(t, sg, g, 2, reads[1], sc)
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
	// each Neighbors call consumes its own read.
	reads, _ := request(sg, sc, []uint32{2, 2}, nil)
	checkRead(t, sg, g, 2, reads[0], sc)
	checkRead(t, sg, g, 2, reads[1], sc)
	st := sg.PrefetchStats()
	if st.Spans != 1 || st.Vertices != 2 {
		t.Fatalf("stats = %+v, want 1 span covering 2 sweep reads", st)
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
	reads, _ := request(sg, sc, []uint32{0, 2}, nil)
	checkRead(t, sg, g, 0, reads[0], sc) // vertex 2's read left live
	// The next sweep reuses both reads: vertex 2's, never decoded, counts
	// abandoned; vertex 0's, decoded, counts nothing.
	reads, _ = request(sg, sc, []uint32{1, 0}, []any{reads[1], reads[0]})
	checkRead(t, sg, g, 1, reads[0], sc)
	checkRead(t, sg, g, 0, reads[1], sc)
	st := sg.PrefetchStats()
	if st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
	if st.Consumed != 3 {
		t.Fatalf("consumed = %d, want 3", st.Consumed)
	}
	// A vertex whose read was abandoned still reads synchronously.
	checkRead(t, sg, g, 2, nil, sc)
}

func TestPrefetchZeroDegreeAndEmptyWindows(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{})
	sc := &graph.Scratch[uint32]{}
	request(sg, sc, nil, nil)
	reads, waits := request(sg, sc, []uint32{3, 3}, nil) // degree 0: no extent, no span
	if waits[0] != nil || waits[1] != nil {
		t.Fatalf("waits = %v, want none for degree-0 vertices", waits)
	}
	st := sg.PrefetchStats()
	if st.Windows != 0 || st.Spans != 0 {
		t.Fatalf("stats = %+v, want no windows or spans issued", st)
	}
	sc.Read = reads[0]
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
	for _, vs := range [][]uint32{{0}, {0, 2}} {
		reads, _ := request(sg, sc, vs, nil)
		sc.Read = reads[0]
		if _, _, err := sg.Neighbors(0, sc); err == nil {
			t.Fatalf("sweep %v: the requested read's error was swallowed", vs)
		}
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

// TestWindowsShareABlockInFlight has two workers' sweeps ask for extents in
// one device block that no single range covers: the first {a, a+1}, the
// second {a+2, c}. The first sweep's read is held in the device; the second
// sweep's range must wait on it instead of reading the block again, and the
// prefetcher counts it as a range that issued no read. Sharing by covered
// byte span — the table the block table replaced — reads the block twice.
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
	// a and c = a+3 sit in one block, and so do the extents between them.
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

	// Request returns with the reads in flight; each worker's Neighbors calls
	// wait for its own.
	var wg sync.WaitGroup
	worker := func(vs []uint32, reads []any, sc *graph.Scratch[uint32]) {
		defer wg.Done()
		for i, v := range vs {
			sc.Read = reads[i]
			got, _, err := sg.Neighbors(v, sc)
			want, _, _ := g.Neighbors(v, nil)
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("Neighbors(%d) = %v, %v; want %v", v, got, err, want)
			}
		}
	}
	entered, _ := dev.counts()
	first, second := []uint32{a, a + 1}, []uint32{a + 2, c}
	scA, scC := &graph.Scratch[uint32]{}, &graph.Scratch[uint32]{}
	readsA, waitsA := request(sg, scA, first, nil)
	waitFor(t, "the first sweep's read to reach the device", func() bool { n, _ := dev.counts(); return n == entered+1 })
	readsC, waitsC := request(sg, scC, second, nil)
	for i, w := range append(waitsA, waitsC...) {
		if w == nil || w != waitsA[0] {
			t.Fatalf("wait %d is %v, want the first sweep's fetch %v", i, w, waitsA[0])
		}
	}
	wg.Add(2)
	go worker(first, readsA, scA)
	go worker(second, readsC, scC)
	dev.open()
	wg.Wait()
	if n, _ := dev.counts(); n != entered+1 || dev.reads[block] != 1 {
		t.Fatalf("%d device reads, block %d read %d times; want one read of it", n-entered, block, dev.reads[block])
	}
	offB, _ := sg.out.extent(a + 2)
	offC, nC := sg.out.extent(c)
	st := sg.PrefetchStats()
	if st.Windows != 2 || st.Vertices != 4 || st.Spans != 1 || st.DedupSpans != 1 ||
		st.DedupBytes != uint64(offC+int64(nC)-offB) || st.Consumed != 4 || st.Abandoned != 0 {
		t.Fatalf("stats %+v: want one read serving two sweeps, the second's range counted shared, four reads consumed", st)
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

	// One sweep: the vertices around the failed block, which share its read,
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
	reads, _ := request(sg, sc, window, nil)
	onBad, fine := 0, 0
	for i, v := range window {
		off, n := sg.out.extent(v)
		sc.Read = reads[i]
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
		t.Fatalf("%d sweep vertices on the failed block, %d read whole: the test needs both", onBad, fine)
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
// raw store installs nothing: a sweep's bytes live in its reads only, a
// decoded read lets go of them, and the table ends every traversal holding
// no block — so a raw-device mount keeps measuring the device.
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
	reads, _ := request(sg, sc, window, nil)
	held := 0
	for _, r := range reads {
		held += len(r.(*heldRead).held)
	}
	if held == 0 {
		t.Fatal("the sweep's reads hold no block entries")
	}
	sess := sc.Prefetch.(*prefetchSession)
	for _, e := range sess.held[:cap(sess.held)] {
		if e != nil {
			t.Fatalf("the sweep's range buffer still references block %d", e.id)
		}
	}
	for i, v := range window {
		checkRead(t, sg, g, v, reads[i], sc)
		r := reads[i].(*heldRead)
		for _, e := range r.held[:cap(r.held)] {
			if e != nil {
				t.Fatalf("vertex %d's decoded read still references block %d", v, e.id)
			}
		}
	}
	assertQuiescent(t, sg.table)
	if _, err := core.SSSP[uint32](sg, 0, core.Config{Workers: 16, SemiSort: true, Prefetch: 16}); err != nil {
		t.Fatal(err)
	}
	assertQuiescent(t, sg.table)
}

// postLog is a completion sink that keeps what is posted to it.
type postLog struct {
	mu    sync.Mutex
	posts []<-chan struct{}
}

func (l *postLog) Landed(wait <-chan struct{}) {
	l.mu.Lock()
	l.posts = append(l.posts, wait)
	l.mu.Unlock()
}

func (l *postLog) taken() []<-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.posts)
}

// TestFetchPostsItsLanding pins the table's side of a parked read on a fetch
// the device holds. A sink subscribed while the fetch is in flight — by the
// sweep that started it and again by a re-check of the same read — is posted
// the sweep's wait exactly once when the fetch lands; a sink that re-checks
// the read after the landing is told it has landed and is posted nothing. A
// failed fetch posts as a filled one does, and the read reports its error.
func TestFetchPostsItsLanding(t *testing.T) {
	for name, fail := range map[string]bool{"filled": false, "failed": true} {
		t.Run(name, func(t *testing.T) { fetchPostsItsLanding(t, fail) })
	}
}

func fetchPostsItsLanding(t *testing.T, fail bool) {
	g := buildGraph(t, 400, 3200, false, 71)
	data := writeToMem(t, g).Data
	probe, err := Open[uint32](bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	v := uint32(200)
	off, n := probe.out.extent(v)
	if n == 0 {
		t.Fatalf("vertex %d has no out-edges", v)
	}
	dev := gatedOver(data, off/gatedBlock*gatedBlock)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	withBlocks(sg, gatedBlock)
	sg.EnablePrefetch(PrefetchConfig{})
	dev.fail.Store(fail)

	sc := &graph.Scratch[uint32]{}
	early, late := &postLog{}, &postLog{}
	vs, reads := []uint32{v}, make([]any, 1)
	check := func(to graph.Completions) <-chan struct{} {
		waits := make([]<-chan struct{}, 1)
		sg.Request(vs, reads, waits, to, sc)
		return waits[0]
	}
	wait := check(early)
	if wait == nil {
		t.Fatal("Request found the held bytes resident")
	}
	if again := check(early); again != wait {
		t.Fatalf("the re-check waits on %v, want the fetch in flight %v", again, wait)
	}
	if posts := early.taken(); len(posts) != 0 {
		t.Fatalf("%d posts before the fetch landed", len(posts))
	}
	dev.open()
	waitFor(t, "the fetch to finish", func() bool { return sg.table.async.Load() == 0 })
	if posts := early.taken(); len(posts) != 1 || posts[0] != wait {
		t.Fatalf("posted %v, want the one wait %v", posts, wait)
	}
	if after := check(late); after != nil {
		t.Fatalf("a re-check after the landing waits on %v, want it reported landed", after)
	}
	if posts := late.taken(); len(posts) != 0 {
		t.Fatalf("a sink that came after the landing was posted %v", posts)
	}
	sc.Read = reads[0]
	if _, _, err := sg.Neighbors(v, sc); (err != nil) != fail {
		t.Fatalf("Neighbors(%d) after the fetch: %v", v, err)
	}
}
