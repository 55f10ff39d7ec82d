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

// coreGoroutines counts the goroutines this package started: runners, the
// context watcher, the wakers of parked reads.
func coreGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "created by repro/internal/core.")
}

// TestNoVisitorLeftParked aborts a traversal while visitors sit parked on a
// read the gate holds: once by cancelling its context, once by failing that
// read. SSSP from 0 over
//
//	0 -1-> 2..17        1 -1-> 0 (x1200)        v -1-> 0 for v in 2..17
//
// on a fed cache mount with readahead 1: unreached 1's parallel edges put the
// adjacency of 2..17 in another block than 0's, so every one of the sixteen
// requests that block, the first reserves it, and fifteen join its fetch and
// park on it. Either way Wait must return the abort's cause with the
// Terminator at zero, every queued visitor settled in the feed, and no
// goroutine of the engine left; once the read is over, nothing is in flight.
func TestNoVisitorLeftParked(t *testing.T) {
	for name, fail := range map[string]bool{"context cancelled": false, "fetch failed": true} {
		t.Run(name, func(t *testing.T) { noVisitorLeftParked(t, fail) })
	}
}

func noVisitorLeftParked(t *testing.T, fail bool) {
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
	store := &failGate{data: buf.Bytes(), entered: make(chan struct{}), release: make(chan error)}
	cache, err := sem.NewCachedStore(store, 4096, int64(buf.Len()))
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
	store.hold = [2]int64{probe.lastOff.Load(), probe.lastOff.Load() + probe.lastLen.Load()}
	if store.hold[0]/4096 == 0 {
		t.Fatalf("vertex 2's adjacency starts in block 0 with vertex 0's: %v", store.hold)
	}
	store.armed = true
	fg := &fedGraph{Graph: sg, bal: &balanceSettler{open: make(map[uint64]int)}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Workers: 4, Context: ctx}
	cfg.normalize()
	labels := make([]graph.Dist, n)
	initLabels[uint32](labels, nil)
	src := uint32(0)
	k := newKernelState[uint32](fg, labels, nil, ssspStep, &src)
	e := k.engine(cfg, newEngineRes[uint32](cfg))
	before := runtime.NumGoroutine()
	e.Start()
	e.Push(0, src, uint64(src))
	<-store.entered
	// The fifteen others join the held fetch as they are popped.
	for deadline := time.Now().Add(5 * time.Second); cache.IOStats().Waits < n-3; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d reads joined the held fetch, want %d", cache.IOStats().Waits, n-3)
		}
	}
	injected := errors.New("injected device failure")
	want := error(context.Canceled)
	if fail {
		want = injected
		store.release <- injected
	} else {
		cancel()
	}
	_, err = e.Wait()
	if !errors.Is(err, want) {
		t.Fatalf("Wait returned %v, want %v", err, want)
	}
	// A goroutine Wait joined may still be returning from its deferred Done.
	for deadline := time.Now().Add(5 * time.Second); coreGoroutines() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of the engine outlived Wait", coreGoroutines())
		}
	}
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
	for deadline := time.Now().Add(5 * time.Second); cache.IOStats().Inflight != 0 || runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("the read is over, yet %d blocks are in flight and %d goroutines run (%d before)",
				cache.IOStats().Inflight, runtime.NumGoroutine(), before)
		}
	}
}
