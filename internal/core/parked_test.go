package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/sem"
)

// failGate serves a serialized graph from memory. Once armed, the first read
// that covers any byte of the held range announces itself on entered and
// waits for release, then fails with what release hands it, or serves the
// bytes if that is nil.
type failGate struct {
	data    []byte
	hold    [2]int64
	armed   bool // set before the traversal starts
	once    sync.Once
	entered chan struct{}
	release chan error
}

func (s *failGate) ReadAt(p []byte, off int64) (int, error) {
	if s.armed && off < s.hold[1] && s.hold[0] < off+int64(len(p)) {
		var err error
		s.once.Do(func() {
			s.entered <- struct{}{}
			err = <-s.release
		})
		if err != nil {
			return 0, err
		}
	}
	return bytes.NewReader(s.data).ReadAt(p, off)
}

func (s *failGate) Size() int64 { return int64(len(s.data)) }

// fedGraph is a semi-external graph whose settle feed also passes through a
// balanceSettler, so the test sees what the cache's pending counts see.
type fedGraph struct {
	*sem.Graph[uint32]
	bal *balanceSettler
}

func (g *fedGraph) SettleSink() graph.Settler { return forwardSettler{g.bal, g.Graph.SettleSink()} }

type forwardSettler struct {
	bal   *balanceSettler
	inner graph.Settler
}

func (f forwardSettler) VertexQueued(v uint64) {
	f.bal.VertexQueued(v)
	f.inner.VertexQueued(v)
}

func (f forwardSettler) VertexSettled(v uint64) {
	f.bal.VertexSettled(v)
	f.inner.VertexSettled(v)
}

// coreGoroutines counts the goroutines this package started: runners and the
// context watcher.
func coreGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "created by repro/internal/core.")
}

// heldStar builds the graph of the parked-visitor tests, SSSP from 0 over
//
//	0 -1-> 2..17        1 -1-> 0 (x1200)        v -1-> 0 for v in 2..17
//
// and writes it. Unreached 1's parallel edges put the adjacency of 2..17 in
// another 4 KiB block than 0's, so on a cache mount with readahead 1 every
// one of the sixteen requests that block, the first reserves it, and fifteen
// join its fetch and park on it. It returns the file's bytes and the range of
// 2's adjacency, which a gate on them holds.
func heldStar(t *testing.T) (*graph.CSR[uint32], []byte, [2]int64) {
	t.Helper()
	const n = 18
	b := graph.NewBuilder[uint32](n, true)
	for v := uint32(2); v < n; v++ {
		b.AddEdge(0, v, 1)
		b.AddEdge(v, 0, 1)
	}
	padEdges(b, 1, 0, 1, 1200)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	// Where 2's adjacency lives is the store's business: a graph without a
	// cache reads exactly its extent.
	probe := &holdGate{data: buf.Bytes()}
	raw, err := sem.Open[uint32](probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := raw.Neighbors(2, &graph.Scratch[uint32]{}); err != nil {
		t.Fatal(err)
	}
	hold := [2]int64{probe.lastOff.Load(), probe.lastOff.Load() + probe.lastLen.Load()}
	if hold[0]/4096 == 0 {
		t.Fatalf("vertex 2's adjacency starts in block 0 with vertex 0's: %v", hold)
	}
	return g, buf.Bytes(), hold
}

// fedMount opens the n bytes of store behind a cache as large as they are,
// with readahead 1, and feeds it the traversal's state.
func fedMount(t *testing.T, store sem.Store, n int) (*sem.Graph[uint32], *sem.CachedStore) {
	t.Helper()
	cache, err := sem.NewCachedStore(store, 4096, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sem.Open[uint32](cache)
	if err != nil {
		t.Fatal(err)
	}
	if !sg.EnableStateCache() {
		t.Fatal("EnableStateCache refused a cached mount")
	}
	return sg, cache
}

// waitUntil spins until cond holds. It waits on an event the traversal is
// certain to produce; the deadline only turns a broken build's hang into a
// failure.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// runnersAsleep counts the runners blocked in park's wait for a wake-up.
func runnersAsleep() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte(".(*Engine[...]).park(")) {
			n++
		}
	}
	return n
}

// TestNoVisitorLeftParked aborts a traversal while visitors sit parked on a
// read the gate holds (heldStar): once by cancelling its context, once by
// failing that read. Either way Wait must return the abort's cause with the
// Terminator at zero, every queued visitor settled in the feed, and no
// goroutine of the engine left; once the read is over, nothing is in flight.
func TestNoVisitorLeftParked(t *testing.T) {
	for name, fail := range map[string]bool{"context cancelled": false, "fetch failed": true} {
		t.Run(name, func(t *testing.T) { noVisitorLeftParked(t, fail) })
	}
}

func noVisitorLeftParked(t *testing.T, fail bool) {
	g, data, hold := heldStar(t)
	store := &failGate{data: data, hold: hold, armed: true, entered: make(chan struct{}), release: make(chan error)}
	sg, cache := fedMount(t, store, len(data))
	fg := &fedGraph{Graph: sg, bal: &balanceSettler{open: make(map[uint64]int)}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Workers: 4, Context: ctx}
	cfg.normalize()
	labels := make([]graph.Dist, g.NumVertices())
	initLabels[uint32](labels, nil)
	src := uint32(0)
	k := newKernelState[uint32](fg, labels, nil, ssspStep, &src)
	e := k.engine(cfg, newEngineRes[uint32](cfg))
	before := runtime.NumGoroutine()
	e.Start()
	e.Push(0, src, uint64(src))
	<-store.entered
	waitUntil(t, "the fifteen others to join the held fetch", func() bool { return cache.IOStats().Waits >= 15 })
	injected := errors.New("injected device failure")
	want := error(context.Canceled)
	if fail {
		want = injected
		store.release <- injected
	} else {
		cancel()
	}
	_, err := e.Wait()
	if !errors.Is(err, want) {
		t.Fatalf("Wait returned %v, want %v", err, want)
	}
	// A goroutine Wait joined may still be returning from its deferred Done.
	waitUntil(t, "the engine's goroutines to exit", func() bool { return coreGoroutines() == 0 })
	if o := e.term.Outstanding(); o != 0 {
		t.Errorf("the terminator counts %d visitors after Wait", o)
	}
	for v, open := range fg.bal.open {
		if open != 0 {
			t.Errorf("vertex %d: %d visitors queued and never settled", v, open)
		}
	}
	if !fail {
		store.release <- nil
	}
	waitUntil(t, "the read to end", func() bool {
		return cache.IOStats().Inflight == 0 && runtime.NumGoroutine() <= before
	})
}

// TestParkedRunnersStartNoGoroutines pins that a runner learns of a landed
// read from the back end, not from goroutines of its own: a cold SSSP with
// 128 workers parks every visitor on the fetch the gate holds (heldStar), and
// once every runner waits in park for a wake-up, the runners are the only
// goroutines of the engine (there is no context to watch). Released, the
// traversal ends with the serial labels.
func TestParkedRunnersStartNoGoroutines(t *testing.T) {
	g, data, hold := heldStar(t)
	store := &holdGate{data: data, hold: hold, entered: make(chan struct{}), release: make(chan struct{})}
	store.armed.Store(true)
	sg, cache := fedMount(t, store, len(data))
	cfg := Config{Workers: 128}
	cfg.normalize()
	labels := make([]graph.Dist, g.NumVertices())
	initLabels[uint32](labels, nil)
	src := uint32(0)
	e := newKernelState[uint32](sg, labels, nil, ssspStep, &src).engine(cfg, newEngineRes[uint32](cfg))
	e.Start()
	e.Push(0, src, uint64(src))
	<-store.entered
	waitUntil(t, "every visitor parked and every runner asleep", func() bool {
		return cache.IOStats().Waits >= 15 && runnersAsleep() == e.runners
	})
	if n := coreGoroutines(); n != e.runners {
		t.Errorf("%d goroutines of the engine while %d runners sleep on parked reads", n, e.runners)
	}
	close(store.release)
	if _, err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	assertSerialSSSP(t, g, labels)
}

// assertSerialSSSP compares SSSP labels from 0 with the serial Dijkstra's.
func assertSerialSSSP(t *testing.T, g *graph.CSR[uint32], labels []graph.Dist) {
	t.Helper()
	want, _, err := baseline.SerialDijkstra[uint32](g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, labels[v], want[v])
		}
	}
}

// TestLandingPostedToRecycledRunner aborts a pooled traversal while its
// visitors sit parked on the fetch the gate holds (heldStar), so that fetch
// will post to runners whose resource set the pool takes back, and starts a
// second traversal on that set over the same mount, whose visitors park on
// the same fetch. Released, the fetch lands once for both: the second
// traversal must end with the serial labels, and under -tags invariants
// neither the pool's check for visitors left parked nor Wait's drain check
// may fire.
func TestLandingPostedToRecycledRunner(t *testing.T) {
	g, data, hold := heldStar(t)
	store := &holdGate{data: data, hold: hold, entered: make(chan struct{}), release: make(chan struct{})}
	store.armed.Store(true)
	sg, cache := fedMount(t, store, len(data))
	pool := NewEnginePool[uint32](Config{Workers: 128})

	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := pool.SSSP(ctx, sg, 0)
		first <- err
	}()
	<-store.entered
	waitUntil(t, "the first traversal's visitors to park", func() bool { return cache.IOStats().Waits >= 15 })
	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("the aborted traversal returned %v, want %v", err, context.Canceled)
	}
	if n := pool.Idle(); n != 1 {
		t.Fatalf("%d resource sets idle after the abort, want 1", n)
	}

	joined := cache.IOStats().Waits
	second := make(chan *SSSPResult[uint32], 1)
	go func() {
		res, err := pool.SSSP(context.Background(), sg, 0)
		if err != nil {
			t.Error(err)
		}
		second <- res
	}()
	waitUntil(t, "the second traversal's visitors to park on the held fetch", func() bool {
		return cache.IOStats().Waits >= joined+16
	})
	close(store.release)
	res := <-second
	if res == nil {
		t.FailNow()
	}
	if reused, _ := pool.Reuses(); reused != 1 {
		t.Fatalf("the second traversal reused %d resource sets, want the aborted one's", reused)
	}
	assertSerialSSSP(t, g, res.Dist)
}
