package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sem"
)

// holdGate serves a serialized graph from memory and remembers the range of
// the last read. Once armed, the first read that covers any byte of the held
// range announces itself on entered and waits for release. A range, not an
// offset: behind a cache, or on a graph that windows, a read is a whole-block
// request; on a graph with neither it is the exact extent.
type holdGate struct {
	data             []byte
	lastOff, lastLen atomic.Int64
	armed            atomic.Bool
	hold             [2]int64 // [off, end) of the held bytes
	once             sync.Once
	entered, release chan struct{}
}

func (s *holdGate) ReadAt(p []byte, off int64) (int, error) {
	s.lastOff.Store(off)
	s.lastLen.Store(int64(len(p)))
	if s.armed.Load() && off < s.hold[1] && s.hold[0] < off+int64(len(p)) {
		held := false
		s.once.Do(func() { held = true })
		if held {
			s.entered <- struct{}{}
			<-s.release
		}
	}
	return bytes.NewReader(s.data).ReadAt(p, off)
}

func (s *holdGate) Size() int64 { return int64(len(s.data)) }

// seenGraph is a semi-external graph that closes seen when a visit decodes
// the adjacency of vertex watch: its read has landed and its visitor runs.
// Embedding keeps the graph's device capability.
type seenGraph struct {
	*sem.Graph[uint32]
	watch uint32
	once  sync.Once
	seen  chan struct{}
}

func (w *seenGraph) Neighbors(v uint32, s *graph.Scratch[uint32]) ([]uint32, []graph.Weight, error) {
	if v == w.watch {
		w.once.Do(func() { close(w.seen) })
	}
	return w.Graph.Neighbors(v, s)
}

// gatedSEM writes g, opens it over a holdGate without a cache or a
// prefetcher, so that every read, parked or not, is an exact extent, and arms
// the gate on the adjacency bytes of vertex hold: the store itself says where
// they are. It reports whether hold's first byte sits in the same 4 KiB block
// as watch's, where a block-reading table would make watch's read wait on
// hold's.
func gatedSEM(t *testing.T, g *graph.CSR[uint32], hold, watch uint32) (*seenGraph, *holdGate, bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	store := &holdGate{data: buf.Bytes(), entered: make(chan struct{}), release: make(chan struct{})}
	sg, err := sem.Open[uint32](store)
	if err != nil {
		t.Fatal(err)
	}
	extent := func(v uint32) [2]int64 {
		if _, _, err := sg.Neighbors(v, &graph.Scratch[uint32]{}); err != nil {
			t.Fatal(err)
		}
		off := store.lastOff.Load()
		return [2]int64{off, off + store.lastLen.Load()}
	}
	w := extent(watch)
	store.hold = extent(hold)
	store.armed.Store(true)
	return &seenGraph{Graph: sg, watch: watch, seen: make(chan struct{})}, store, w[0]/4096 == store.hold[0]/4096
}

// awaitSeen waits for the gate to hold a read, then gives the traversal 5 s
// to visit the vertex it looks for, and releases the gate either way. The timer is
// the verdict of a run that would otherwise never end, not a
// synchronisation.
func awaitSeen(g *seenGraph, store *holdGate) bool {
	<-store.entered
	defer close(store.release)
	select {
	case <-g.seen:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// padEdges gives u n parallel edges to t: a long adjacency the kernel prunes
// to one proposal, which puts vertices written after u in later 4 KiB blocks.
func padEdges(b *graph.Builder[uint32], u, t uint32, w graph.Weight, n int) {
	for i := 0; i < n; i++ {
		b.AddEdge(u, t, w)
	}
}

// TestBlockedWorkerHoldsNoVisitors pins the delivery rule on a device-backed
// graph: a runner never waits in a storage read while its outbox holds a
// visitor. Two queues (A owns the even vertices, B the odd ones: the
// ownership hash's multiplier is odd, so it keeps an id's low bit) run SSSP
// from 0 over
//
//	0 -1-> 2 -1-> 1 -1-> 3        0 -2-> 4 -1-> 6        3 -1-> 1 (x600)
//
// A visits 0 (2 and 4 land in its own queue), then 2, whose only proposal is
// for B's vertex 1, then 4, whose adjacency read the gate holds. A's queue
// was never empty between the last two visits and B's bucket holds one
// visitor, so neither the drain nor the size trigger delivered it: B can only
// visit vertex 1 while A's read of 4 is inside the device if A delivered its
// outbox before visiting 4. 3's parallel back edges (all
// pruned) put 4's adjacency in another 4 KiB block than 0's, 1's and 2's, so
// the layout holds where a parked read is a block request too: a read of 1
// that joined 4's block would wait with it. With sweeps of one A parks 4 on
// its read; the verdict is the visit of 1, not a read of it: parked reads run
// on the table's I/O pool in any order. With a 16-wide sweep A pops 2 and 4
// in one sweep, and the rule holds inside it too: delivery follows the
// visit, not the sweep.
func TestBlockedWorkerHoldsNoVisitors(t *testing.T) {
	for name, window := range map[string]int{"one visitor a pop": 0, "16-wide pop window": 16} {
		t.Run(name, func(t *testing.T) { blockedWorkerHoldsNoVisitors(t, window) })
	}
}

func blockedWorkerHoldsNoVisitors(t *testing.T, window int) {
	split := New[uint32](Config{Workers: 2}, nil)
	for v := uint64(0); v < 8; v++ {
		if split.owner(v) != int(v%2) {
			t.Fatalf("vertex %d is owned by worker %d; the layout below needs %d", v, split.owner(v), v%2)
		}
	}
	b := graph.NewBuilder[uint32](8, true)
	b.AddEdge(0, 2, 1)
	b.AddEdge(0, 4, 2)
	b.AddEdge(2, 1, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(4, 6, 1)
	padEdges(b, 3, 1, 1, 600)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	sg, store, shared := gatedSEM(t, g, 4, 1)
	if shared {
		t.Fatal("vertices 1 and 4 share a 4 KiB block: 1's parked read would wait on 4's")
	}

	type result struct {
		res *SSSPResult[uint32]
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := SSSP[uint32](sg, 0, Config{Workers: 2, Prefetch: window})
		done <- result{res, err}
	}()
	delivered := awaitSeen(sg, store)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !delivered {
		t.Fatal("A's read of vertex 4 was in the device while the visitor it pushed for vertex 1 sat in its outbox: B never ran it")
	}
	for v, want := range []graph.Dist{0, 2, 1, 3, 2, graph.InfDist, 3, graph.InfDist} {
		if r.res.Dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, r.res.Dist[v], want)
		}
	}
}

// TestMissDoesNotBlockItsRunner pins the parked read: one queue, one runner,
// SSSP, and a gate that holds one read while a visitor of another block must
// run. A runner that waits in the read of a miss never reads anything else
// until the gate releases. No sleeps: the timer is the verdict of a run that
// would otherwise never end.
func TestMissDoesNotBlockItsRunner(t *testing.T) {
	t.Run("one fetch", missDoesNotBlockItsRunner)
	t.Run("extent under two fetches", extentUnderTwoFetches)
	t.Run("pop sweep", popSweep)
}

// missDoesNotBlockItsRunner runs from 0 over
//
//	0 -1-> 3 -1-> 0        0 -2-> 1 -1-> 0        2 -1-> 0 (x600)
//
// The runner visits 0 and pops 3, whose adjacency — in another 4 KiB block
// than 0's and 1's, behind unreached 2's parallel edges — the gate holds. A
// runner that parks 3 on its read pops 1 and visits it while 3's read is
// still in the device.
func missDoesNotBlockItsRunner(t *testing.T) {
	b := graph.NewBuilder[uint32](4, true)
	b.AddEdge(0, 3, 1)
	b.AddEdge(0, 1, 2)
	b.AddEdge(3, 0, 1)
	b.AddEdge(1, 0, 1)
	padEdges(b, 2, 0, 1, 600)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	sg, store, shared := gatedSEM(t, g, 3, 1)
	if shared {
		t.Fatal("vertices 1 and 3 share a 4 KiB block: 1's parked read would wait on 3's")
	}
	r := awaitSSSP(t, sg, store, 0)
	if !r.seen {
		t.Fatal("the runner waited in the read of vertex 3 and read nothing else: a miss blocked its runner")
	}
	for v, want := range []graph.Dist{0, 2, graph.InfDist, 1} {
		if r.res.Dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, r.res.Dist[v], want)
		}
	}
}

// extentUnderTwoFetches runs from 0 over
//
//	0 -1-> 4 -1-> 0        0 -2-> 3 -1-> 0 (x1200)        0 -3-> 2 -1-> 0
//	1 -1-> 0 (x600)
//
// on a cache with readahead 1. Unreached 1's parallel edges put 2's adjacency
// in the block after 0's, where 3's long one starts; 3's runs on through
// more blocks and ends in the block where 4's starts. The runner pops 4, whose
// fetch the gate holds; 3, which starts a fetch of its own for the blocks
// before 4's and joins the held one for the last; and 2, whose block is 3's
// first. The first of 3's fetches lands: a runner that then visits 3 waits
// in the held read inside the visit, and 2 — parked behind 3, or not yet
// popped — never runs; one that parks 3 again on the held fetch visits 2.
func extentUnderTwoFetches(t *testing.T) {
	b := graph.NewBuilder[uint32](5, true)
	b.AddEdge(0, 4, 1)
	b.AddEdge(0, 3, 2)
	b.AddEdge(0, 2, 3)
	b.AddEdge(4, 0, 1)
	b.AddEdge(2, 0, 1)
	padEdges(b, 3, 0, 1, 1200)
	padEdges(b, 1, 0, 1, 600)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	store := &holdGate{data: buf.Bytes(), entered: make(chan struct{}), release: make(chan struct{})}
	// Where each adjacency lives is the store's business: a graph without a
	// cache reads exactly its extent.
	raw, err := sem.Open[uint32](store)
	if err != nil {
		t.Fatal(err)
	}
	var first, last [5]int64 // the 4 KiB blocks of each extent's first and last byte
	for v := range uint32(5) {
		if _, _, err := raw.Neighbors(v, &graph.Scratch[uint32]{}); err != nil {
			t.Fatal(err)
		}
		off := store.lastOff.Load()
		first[v], last[v] = off/4096, (off+store.lastLen.Load()-1)/4096
		if v == 4 {
			store.hold = [2]int64{off, off + store.lastLen.Load()}
		}
	}
	if first[2] == first[0] || first[3] != first[2] || last[2] != first[2] || last[3] == first[3] || first[4] != last[3] {
		t.Fatalf("extent blocks first %v last %v: want 2 alone in 3's first block, after 0's, and 4 starting in 3's last", first, last)
	}
	cache, err := sem.NewCachedStore(store, 4096, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	cg, err := sem.Open[uint32](cache)
	if err != nil {
		t.Fatal(err)
	}
	store.armed.Store(true)
	r := awaitSSSP(t, &seenGraph{Graph: cg, watch: 2, seen: make(chan struct{})}, store, 0)
	if !r.seen {
		t.Fatal("the runner visited 3 while the last of its blocks was under the held fetch, and waited in it: 2 never ran")
	}
	for v, want := range []graph.Dist{0, graph.InfDist, 3, 2, 1} {
		if r.res.Dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, r.res.Dist[v], want)
		}
	}
}

// popSweep runs from 0 over
//
//	0 -1-> 3 -1-> 0        0 -2-> 1 -1-> 0        2 -1-> 0 (x5000)
//
// on a graph that windows, with no cache and a 16-wide sweep: the runner
// visits 0 and pops 3 and 1 in one sweep. Unreached 2's parallel edges put
// 3's adjacency more than the coalescing gap past 1's, so their extents are
// two range fetches, and the gate holds 3's. A runner that reads its sweep
// in the order it visits waits in 3's range; one that parks 3 on it visits 1
// once 1's range lands.
func popSweep(t *testing.T) {
	b := graph.NewBuilder[uint32](4, true)
	b.AddEdge(0, 3, 1)
	b.AddEdge(0, 1, 2)
	b.AddEdge(3, 0, 1)
	b.AddEdge(1, 0, 1)
	padEdges(b, 2, 0, 1, 5000)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	if gap := 8 * g.Degree(2); gap <= sem.DefaultPrefetchGap { // weighted v1 records: 8 bytes
		t.Fatalf("3's adjacency starts %d bytes past 1's: their extents would merge into one range", gap)
	}
	sg, store, _ := gatedSEM(t, g, 3, 1)
	sg.EnablePrefetch(sem.PrefetchConfig{MaxGap: sem.DefaultPrefetchGap})
	r := awaitSSSP(t, sg, store, 16)
	if !r.seen {
		t.Fatal("the runner waited in the range of vertex 3 and ran nothing else of its sweep: a miss blocked its runner")
	}
	for v, want := range []graph.Dist{0, 2, graph.InfDist, 1} {
		if r.res.Dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, r.res.Dist[v], want)
		}
	}
}

// gatedRun is the outcome of awaitSSSP.
type gatedRun struct {
	res  *SSSPResult[uint32]
	seen bool
}

// awaitSSSP runs SSSP from 0 over g on one queue, popping sweeps of up to
// prefetch visitors, while awaitSeen judges whether the vertex it looks for ran
// with the gate holding a read.
func awaitSSSP(t *testing.T, g *seenGraph, store *holdGate, prefetch int) gatedRun {
	t.Helper()
	type result struct {
		res *SSSPResult[uint32]
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := SSSP[uint32](g, 0, Config{Workers: 1, Prefetch: prefetch})
		done <- result{res, err}
	}()
	seen := awaitSeen(g, store)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	return gatedRun{r.res, seen}
}
