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

// TestWaitJoinsContextWatcher pins Wait's join on the Config.Context watcher:
// when Wait returns, the watcher has exited, whether the context was
// cancelled mid-run (the watcher is inside Abort) or the traversal completed
// (the watcher is leaving on the stop channel). A watcher still running
// holds the engine's queues, which a pooled caller recycles after Wait.
func TestWaitJoinsContextWatcher(t *testing.T) {
	visit := func(ctx *Ctx[uint32], it pq.Item) error {
		if it.Pri < 64 {
			ctx.Push(it.Pri+1, uint32(it.V+1), 0)
		}
		return nil
	}
	for run := 0; run < 200; run++ {
		cctx, cancel := context.WithCancel(context.Background())
		e := New[uint32](Config{Workers: 2, Context: cctx}, visit)
		e.Start()
		e.Push(0, 0, 0)
		if run%2 == 0 {
			cancel()
		}
		_, err := e.Wait()
		cancel()
		if err != nil && (run%2 == 1 || !errors.Is(err, context.Canceled)) {
			t.Fatalf("run %d: err = %v", run, err)
		}
		select {
		case <-e.watcherDone:
		default:
			t.Fatalf("run %d: Wait returned before the context watcher exited", run)
		}
	}
}

// abortingCtx is a Config.Context whose Done the test closes. Its Err
// reports nil until then; after that it signals entered and blocks until the
// test closes release, holding the watcher inside e.Abort(ctx.Err()) before
// the abort flag is set.
type abortingCtx struct {
	context.Context
	done, entered, release chan struct{}
	once                   sync.Once
}

func (c *abortingCtx) Done() <-chan struct{} { return c.done }

func (c *abortingCtx) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return context.Canceled
}

// TestWaitJoinsAbortingWatcher forces the schedule where a cancellation
// lands as the runners exit: Wait reaches its join on the watcher while the
// watcher is still inside Abort, then the watcher runs Abort to the end.
// Wait must come back: a join held under any lock that Abort's finish takes
// never does.
func TestWaitJoinsAbortingWatcher(t *testing.T) {
	c := &abortingCtx{Context: context.Background(), done: make(chan struct{}),
		entered: make(chan struct{}), release: make(chan struct{})}
	e := New[uint32](Config{Workers: 2, Context: c}, func(ctx *Ctx[uint32], it pq.Item) error {
		if it.Pri < 64 {
			ctx.Push(it.Pri+1, uint32(it.V+1), 0)
		}
		return nil
	})
	e.Start()
	e.Push(0, 0, 0)
	close(c.done)
	<-c.entered
	waited := make(chan error, 1)
	go func() {
		_, err := e.Wait()
		waited <- err
	}()
	// Wait is at its watcher join once its goroutine parks in a channel
	// receive; the runners have left by then.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		stack := buf[:runtime.Stack(buf, true)]
		if waitAtWatcherJoin(stack) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Wait never reached its watcher join:\n%s", stack)
		}
	}
	close(c.release)
	select {
	case err := <-waited:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after the watcher's Abort")
	}
}

// waitAtWatcherJoin reports whether a goroutine in the dump stack is
// Engine.Wait parked in a channel receive.
func waitAtWatcherJoin(stack []byte) bool {
	for _, g := range bytes.Split(stack, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte(".(*Engine[...]).Wait(")) {
			return true
		}
	}
	return false
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

// TestAbortMidWindowSettlesEveryVisitor aborts from inside the fourth visit
// of an eight-wide pop — an in-memory runner's batch, a device runner's sweep
// — with work sitting in the pop, the queue and the outbox. One worker makes
// the visit the abort lands on deterministic (internal/sem's
// TestAbortedTraversalLeavesCacheQuiescent is the 128-worker loop); the
// Terminator's accounting must balance exactly: the rest of the pop is
// skipped but finished, Wait drains queue and outbox, so it counts nothing
// once Wait returns, and every goroutine exits. Under DeliverEveryVisit the
// outbox is no hiding place — the worker flushes after the visit the abort
// lands in too — and the same accounting must balance with everything in the
// queue.
func TestAbortMidWindowSettlesEveryVisitor(t *testing.T) {
	for name, everyVisit := range map[string]bool{"size and drain triggers": false, "delivery after every visit": true} {
		t.Run(name, func(t *testing.T) { abortMidWindowSettlesEveryVisitor(t, everyVisit) })
	}
}

func abortMidWindowSettlesEveryVisitor(t *testing.T, everyVisit bool) {
	before := runtime.NumGoroutine()
	sentinel := errors.New("abort mid-window")
	visits, abortAt := 0, -1
	var e *Engine[uint32]
	e = New[uint32](Config{Workers: 1, Prefetch: 8}, func(ctx *Ctx[uint32], it pq.Item) error {
		visits++
		// In memory, arm at the first visit of a full batch once the outbox
		// has flushed at least once, so all three hiding places hold visitors
		// at abort time: the batch is in the runner's pop buffer, and it was
		// full if the queue still holds visitors.
		if !everyVisit && abortAt < 0 && visits > 2*batchSize && it == ctx.stats.pop[0] && e.queues[0].heap.Len() > 0 {
			abortAt = visits + 3
		}
		if visits == abortAt {
			e.Abort(sentinel)
			return nil
		}
		for k := uint64(1); k <= 3; k++ {
			ctx.Push(it.Pri+1, uint32((it.V*3+k)%4096), 0)
		}
		return nil
	})
	if everyVisit {
		// On a device, arm on the first full sweep after as many visits.
		e.DeliverEveryVisit()
		e.SetRequest(func(sweep []pq.Item, _ []any, _ []<-chan struct{}, _ graph.Completions, _ *graph.Scratch[uint32]) bool {
			if abortAt < 0 && len(sweep) == 8 && visits > 2*batchSize {
				abortAt = visits + 4
			}
			return false
		})
	}
	e.Start()
	e.Push(0, 0, 0)
	st, err := e.Wait()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if abortAt < 0 {
		t.Fatal("the traversal never popped a full batch or sweep; nothing was tested")
	}
	if int(st.Visits) != abortAt || visits != abortAt {
		t.Fatalf("visits = %d (stats %d), want the window cut short at visit %d", visits, st.Visits, abortAt)
	}
	if o := e.term.Outstanding(); o != 0 {
		t.Fatalf("the terminator counts %d visitors after Wait", o)
	}
	// Every visitor queued (the pushes and the seed) was finished; the ones
	// not visited are the rest of the pop, at most four, and what Wait drained.
	if unvisited := st.Pushes + 1 - st.Visits; unvisited <= 4 {
		t.Fatalf("finished %d visitors unvisited after %d visits: queue and outbox were not drained", unvisited, abortAt)
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

func (s *gatedStore) Size() int64 { return int64(len(s.data)) }

// TestDirectionCancelMidPhase cancels the level-synchronous driver while a
// phase worker is blocked in a storage read, with more reads of the same
// phase still to come: the driver must return the context's error without
// issuing another read, as the asynchronous engine does within one visit. On
// the device a top-down worker requests its reads an ioFanout slice at a
// time, so the reads of the slice in hand are already issued; the next slice
// must not be.
// (It used to look at the context between phases only, so a serving deadline
// waited out a whole bottom-up scan of the device.) The third case is the
// path serve takes: no direction forced, an EnginePool, a graph on which BFS
// chooses the driver — which must honour the query's context the same way
// and take nothing from the pool. The last case reads behind a block cache,
// where the driver announces windows: once the context is cancelled, no
// further window is announced.
func TestDirectionCancelMidPhase(t *testing.T) {
	// Bottom-up: ~700k in-edges are several 1 MiB scan spans for the one
	// worker; the gate holds the first. Top-down: level k < 24 of a 24x24
	// grid walked from its corner is its k+1 vertices on the anti-diagonal,
	// one adjacency read each; level 16 is two slices, 16 reads and 1, after
	// the 136 of levels 0-15. The gate holds the second read of the first
	// slice, so the 16 are issued and the 17th must not be. Behind a cache of
	// 8-byte blocks with no readahead each of levels 0-2 is one read — level
	// 0's miss, then one window a level — and the gate holds level 2's.
	dense, err := gen.ErdosRenyi[uint32](4096, 700_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid[uint32](8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := gen.Grid[uint32](24, 24)
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
		reads   int64 // issued before the cancellation; 0 = blockAt
		cached  bool
	}{
		{"bottom-up scan", dense, forced(DirectionBottomUp), 1, 0, false},
		{"top-down phase", wide, forced(DirectionHybrid), 136 + 2, 136 + ioFanout, false},
		{"chosen, pooled", dense, func(ctx context.Context, g graph.Adjacency[uint32]) error {
			_, err := pool.BFS(ctx, g, 0)
			return err
		}, 1, 0, false},
		{"top-down behind the cache", grid, forced(DirectionHybrid), 3, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := sem.Write(&buf, tc.g, sem.WriteConfig{InEdges: true}); err != nil {
				t.Fatal(err)
			}
			store := &gatedStore{data: buf.Bytes(), entered: make(chan struct{}), release: make(chan struct{})}
			var under sem.Store = store
			if tc.cached {
				if under, err = sem.NewCachedStore(store, 8, store.Size()); err != nil {
					t.Fatal(err)
				}
			}
			sg, err := sem.Open[uint32](under)
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
			windows := sg.PrefetchStats().Windows
			cancel()
			close(store.release)
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			want := tc.blockAt
			if tc.reads != 0 {
				want = tc.reads
			}
			// Reads issued before the cancellation may reach the store after
			// the traversal returns: wait for them.
			for deadline := time.Now().Add(5 * time.Second); store.reads.Load()-opened < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if got := store.reads.Load() - opened; got != want {
				t.Fatalf("%d reads after the mount, want %d: the phase kept reading after the cancellation", got, want)
			}
			if tc.cached && windows == 0 {
				t.Fatal("the gated read was no window's: nothing announced before the cancellation")
			}
			if got := sg.PrefetchStats().Windows; got != windows {
				t.Fatalf("%d windows announced after the cancellation", got-windows)
			}
		})
	}
	if _, acquired := pool.Reuses(); acquired != 0 || pool.Idle() != 0 {
		t.Fatalf("a BFS on the driver acquired %d resource sets from its pool and left %d idle, want none", acquired, pool.Idle())
	}
}
