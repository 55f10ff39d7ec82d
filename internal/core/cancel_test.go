package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sem"
)

// slowAdjacency delays every adjacency read, standing in for a semi-external
// store: it keeps workers busy long enough for a deadline to fire
// mid-traversal.
type slowAdjacency struct {
	*graph.CSR[uint32]
	delay time.Duration
}

func (s *slowAdjacency) Neighbors(v uint32, scratch *graph.Scratch[uint32]) ([]uint32, []graph.Weight, error) {
	time.Sleep(s.delay)
	return s.CSR.Neighbors(v, scratch)
}

// TestContextCancelMidTraversal fires a deadline while workers are busy on a
// traversal that would otherwise run for seconds, and asserts that Wait
// returns the cancellation error promptly and that no worker goroutines leak.
func TestContextCancelMidTraversal(t *testing.T) {
	// A chain serializes the traversal: one visit at a time, each delayed,
	// so the full run would take ~4096 * delay >> the deadline.
	chain, err := gen.Chain[uint32](4096)
	if err != nil {
		t.Fatal(err)
	}
	g := &slowAdjacency{CSR: chain, delay: time.Millisecond}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	start := time.Now()
	_, err = BFS[uint32](g, 0, Config{Workers: 32, Context: ctx})
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The full traversal takes ~4s; cancellation must land far sooner. The
	// bound is loose (one visit's delay plus scheduling) to stay robust on
	// slow CI hosts.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}

	// All worker goroutines and the context watcher must exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbortStopsSelfSustainingTraversal aborts an engine whose visitors push
// forever; without Abort the traversal never terminates.
func TestAbortStopsSelfSustainingTraversal(t *testing.T) {
	sentinel := errors.New("client went away")
	started := make(chan struct{})
	var once sync.Once
	e := New[uint32](Config{Workers: 4}, func(ctx *Ctx[uint32], it pq.Item) error {
		once.Do(func() { close(started) })
		ctx.Push(it.Pri+1, uint32((it.V+1)%1024), 0)
		return nil
	})
	e.Start()
	e.Push(0, 0, 0)
	<-started
	e.Abort(sentinel)
	done := make(chan error, 1)
	go func() {
		_, err := e.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want %v", err, sentinel)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after Abort")
	}
}

// TestContextPreCanceled verifies a traversal started under an already-dead
// context aborts without visiting (beyond at most the first pops in flight).
func TestContextPreCanceled(t *testing.T) {
	g, err := gen.RMAT[uint32](8, 8, gen.RMATA, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SSSP[uint32](g, 0, Config{Workers: 8, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestContextUncancelledIsNoop pins that a live context changes nothing: the
// traversal completes and matches the no-context run.
func TestContextUncancelledIsNoop(t *testing.T) {
	g, err := gen.RMAT[uint32](10, 8, gen.RMATA, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	got, err := BFS[uint32](g, 0, Config{Workers: 16, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BFS[uint32](g, 0, Config{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] {
			t.Fatalf("level[%d] = %d, want %d", v, got.Level[v], want.Level[v])
		}
	}
}

// balanceSettler tracks, per vertex, visitors queued minus visitors settled.
type balanceSettler struct {
	mu      sync.Mutex
	open    map[uint64]int
	settled int
}

func (s *balanceSettler) VertexQueued(v uint64) {
	s.mu.Lock()
	s.open[v]++
	s.mu.Unlock()
}

func (s *balanceSettler) VertexSettled(v uint64) {
	s.mu.Lock()
	s.open[v]--
	s.settled++
	s.mu.Unlock()
}

// TestAbortMidWindowSettlesEveryVisitor aborts from inside the fourth visit
// of an eight-wide pop window, with work sitting in the window, the queue and
// the outbox. One worker makes the visit the abort lands on deterministic
// (internal/sem's TestAbortedTraversalUnpinsStatePolicy is the 128-worker
// loop); the settle accounting must balance exactly: the rest of the window
// is skipped but settled, Wait drains queue and outbox, and every goroutine
// exits. Under DeliverEveryVisit the outbox is no hiding place — the worker
// flushes after the visit the abort lands in too — and the same accounting
// must balance with everything in the queue.
func TestAbortMidWindowSettlesEveryVisitor(t *testing.T) {
	for name, everyVisit := range map[string]bool{"size and drain triggers": false, "delivery after every visit": true} {
		t.Run(name, func(t *testing.T) { abortMidWindowSettlesEveryVisitor(t, everyVisit) })
	}
}

func abortMidWindowSettlesEveryVisitor(t *testing.T, everyVisit bool) {
	before := runtime.NumGoroutine()
	sentinel := errors.New("abort mid-window")
	settle := &balanceSettler{open: make(map[uint64]int)}
	visits, abortAt := 0, -1
	var e *Engine[uint32]
	e = New[uint32](Config{Workers: 1, Prefetch: 8}, func(ctx *Ctx[uint32], it pq.Item) error {
		visits++
		if visits == abortAt {
			e.Abort(sentinel)
			return nil
		}
		for k := uint64(1); k <= 3; k++ {
			ctx.Push(it.Pri+1, uint32((it.V*3+k)%4096), 0)
		}
		return nil
	})
	e.SetSettle(settle)
	if everyVisit {
		e.DeliverEveryVisit()
	}
	e.SetPrefetch(func(window []pq.Item, _ *graph.Scratch[uint32]) {
		// Arm on the first full window once the outbox has flushed at least
		// once, so all three hiding places hold visitors at abort time.
		if abortAt < 0 && len(window) == 8 && visits > 2*batchSize {
			abortAt = visits + 4
		}
	})
	e.Start()
	e.Push(0, 0, 0)
	st, err := e.Wait()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if abortAt < 0 {
		t.Fatal("the traversal never popped a full window; nothing was tested")
	}
	if int(st.Visits) != abortAt || visits != abortAt {
		t.Fatalf("visits = %d (stats %d), want the window cut short at visit %d", visits, st.Visits, abortAt)
	}
	for v, n := range settle.open {
		if n != 0 {
			t.Fatalf("vertex %d: %d visitors queued but never settled", v, n)
		}
	}
	if settle.settled <= abortAt+4 {
		t.Fatalf("settled %d visitors after %d visits: queue and outbox were not drained", settle.settled, abortAt)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedStore serves a serialized graph from memory, counting reads; once
// armed, the blockAt-th read announces itself on entered and waits for
// release. No sleeps: the test decides what happens while a phase worker is
// inside the device.
type gatedStore struct {
	data    []byte
	reads   atomic.Int64
	blockAt int64 // 0 = pass everything through
	entered chan struct{}
	release chan struct{}
}

func (s *gatedStore) ReadAt(p []byte, off int64) (int, error) {
	if n := s.reads.Add(1); n == s.blockAt {
		s.entered <- struct{}{}
		<-s.release
	}
	return bytes.NewReader(s.data).ReadAt(p, off)
}

// TestDirectionCancelMidPhase cancels the level-synchronous driver while a
// phase worker is blocked in a storage read, with more reads of the same
// phase still to come: the driver must return the context's error without
// issuing another read, as the asynchronous engine does within one visit.
// (It used to look at the context between phases only, so a serving deadline
// waited out a whole bottom-up scan of the device.) The third case is the
// path serve takes: no direction forced, an EnginePool, a graph on which BFS
// chooses the driver — which must honour the query's context the same way
// and take nothing from the pool.
func TestDirectionCancelMidPhase(t *testing.T) {
	// Bottom-up: ~700k in-edges are several 1 MiB scan spans for the one
	// worker; the gate holds the first. Top-down: level 2 of a grid walked
	// from its corner is {2, 9, 16}, one adjacency read each after the three
	// of levels 0-1; the gate holds the second of them.
	dense, err := gen.ErdosRenyi[uint32](4096, 700_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid[uint32](8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEnginePool[uint32](Config{Workers: 1})
	forced := func(dir Direction) func(context.Context, graph.Adjacency[uint32]) error {
		return func(ctx context.Context, g graph.Adjacency[uint32]) error {
			_, err := BFS[uint32](g, 0, Config{Workers: 1, Direction: dir, Context: ctx})
			return err
		}
	}
	for _, tc := range []struct {
		name    string
		g       *graph.CSR[uint32]
		run     func(context.Context, graph.Adjacency[uint32]) error
		blockAt int64
	}{
		{"bottom-up scan", dense, forced(DirectionBottomUp), 1},
		{"top-down phase", grid, forced(DirectionHybrid), 5},
		{"chosen, pooled", dense, func(ctx context.Context, g graph.Adjacency[uint32]) error {
			_, err := pool.BFS(ctx, g, 0)
			return err
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := sem.Write(&buf, tc.g, sem.WriteConfig{InEdges: true}); err != nil {
				t.Fatal(err)
			}
			store := &gatedStore{data: buf.Bytes(), entered: make(chan struct{}), release: make(chan struct{})}
			sg, err := sem.Open[uint32](store)
			if err != nil {
				t.Fatal(err)
			}
			opened := store.reads.Load()
			store.blockAt = opened + tc.blockAt

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- tc.run(ctx, sg) }()
			<-store.entered
			cancel()
			close(store.release)
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := store.reads.Load() - opened; got != tc.blockAt {
				t.Fatalf("%d reads after the mount, want %d: the phase kept reading after the cancellation", got, tc.blockAt)
			}
		})
	}
	if _, acquired := pool.Reuses(); acquired != 0 || pool.Idle() != 0 {
		t.Fatalf("a BFS on the driver acquired %d resource sets from its pool and left %d idle, want none", acquired, pool.Idle())
	}
}
