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

// offsetGate serves a serialized graph from memory and remembers the offset
// of the last read. Once armed, a read at blockOff announces itself on entered
// and waits for release, and the first read at watchOff closes seen: the test
// decides what must have happened while a worker is inside the device.
type offsetGate struct {
	data                   []byte
	last                   atomic.Int64
	armed                  atomic.Bool
	once                   sync.Once
	blockOff, watchOff     int64
	entered, release, seen chan struct{}
}

func (s *offsetGate) ReadAt(p []byte, off int64) (int, error) {
	s.last.Store(off)
	if s.armed.Load() {
		switch off {
		case s.watchOff:
			s.once.Do(func() { close(s.seen) })
		case s.blockOff:
			s.entered <- struct{}{}
			<-s.release
		}
	}
	return bytes.NewReader(s.data).ReadAt(p, off)
}

// TestBlockedWorkerHoldsNoVisitors pins the delivery rule on a device-backed
// graph: a worker never blocks in a storage read while its outbox holds a
// visitor. Two workers (A owns the even vertices, B the odd ones: the
// ownership hash's multiplier is odd, so it keeps an id's low bit) run SSSP
// from 0 over
//
//	0 -1-> 2 -1-> 1 -1-> 3        0 -2-> 4 -1-> 6
//
// A visits 0 (2 and 4 land in its own queue), then 2, whose only proposal is
// for B's vertex 1, then 4, whose adjacency read the gate holds. A's queue
// was never empty between the last two visits and B's bucket holds one
// visitor, so neither the drain nor the size trigger delivered it: B can only
// read vertex 1's adjacency while A is still inside the device if A delivered
// its outbox before visiting 4. A cached mount pops one visitor at a time; a
// raw-device mount pops 2 and 4 in one 16-wide window, and the rule holds
// inside it too: delivery follows the visit, not the window. No sleeps: the
// timer below is the verdict of a run that would otherwise never end (A waits
// for the test, the test for B, B for A's outbox), not a synchronisation.
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
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	store := &offsetGate{data: buf.Bytes(), entered: make(chan struct{}), release: make(chan struct{}), seen: make(chan struct{})}
	sg, err := sem.Open[uint32](store)
	if err != nil {
		t.Fatal(err)
	}
	// Where the two adjacency lists live is the store's business: ask it.
	offsetOf := func(v uint32) int64 {
		if _, _, err := sg.Neighbors(v, &graph.Scratch[uint32]{}); err != nil {
			t.Fatal(err)
		}
		return store.last.Load()
	}
	store.watchOff, store.blockOff = offsetOf(1), offsetOf(4)
	store.armed.Store(true)

	type result struct {
		res *SSSPResult[uint32]
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := SSSP[uint32](sg, 0, Config{Workers: 2, Prefetch: window})
		done <- result{res, err}
	}()
	<-store.entered // A is inside the device, reading vertex 4
	delivered := true
	select {
	case <-store.seen: // B read vertex 1 meanwhile
	case <-time.After(5 * time.Second):
		delivered = false
	}
	close(store.release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !delivered {
		t.Fatal("worker A blocked in its read of vertex 4 while the visitor it pushed for vertex 1 sat in its outbox: B never ran it")
	}
	for v, want := range []graph.Dist{0, 2, 1, 3, 2, graph.InfDist, 3, graph.InfDist} {
		if r.res.Dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, r.res.Dist[v], want)
		}
	}
}
