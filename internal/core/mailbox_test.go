package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pq"
)

func TestOutboxSizeTrigger(t *testing.T) {
	queues := make([]*workQueue, 2)
	for i := range queues {
		queues[i] = &workQueue{heap: pq.New(false)}
	}
	out := newOutbox(queues)
	for i := 1; i < batchSize; i++ {
		out.add(0, pq.Item{Pri: uint64(i)})
	}
	if queues[0].heap.Len() != 0 {
		t.Fatal("delivered before reaching the batch size")
	}
	out.add(0, pq.Item{Pri: batchSize}) // size trigger
	if got := queues[0].heap.Len(); got != batchSize {
		t.Fatalf("queue holds %d items after size trigger, want %d", got, batchSize)
	}
	out.add(1, pq.Item{Pri: 9})
	if queues[1].heap.Len() != 0 {
		t.Fatal("other owner's bucket flushed early")
	}
	out.flush() // drain trigger
	if got := queues[1].heap.Len(); got != 1 {
		t.Fatalf("queue holds %d items after drain flush, want 1", got)
	}
	out.flush() // idempotent on empty buckets
	if queues[0].heap.Len() != batchSize || queues[1].heap.Len() != 1 {
		t.Fatal("second flush changed queue contents")
	}
}

func TestWorkQueuePushBatchOrdersItems(t *testing.T) {
	q := &workQueue{heap: pq.New(false)}
	q.pushBatch([]pq.Item{{Pri: 5}, {Pri: 1}, {Pri: 3}})
	q.pushBatch(nil) // no-op
	var got []uint64
	for _, it := range q.tryPopBatch(nil, 8) {
		got = append(got, it.Pri)
	}
	want := []uint64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("popped %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestVisitorErrorAbortsPromptly is the abort satellite: a visitor error must
// abort the traversal, Wait must return that error, and no worker may
// deadlock even though the queues still hold a large amount of pending work
// when the error fires.
func TestVisitorErrorAbortsPromptly(t *testing.T) {
	sentinel := errors.New("injected visitor failure")
	e := New[uint32](Config{Workers: 4}, func(ctx *Ctx[uint32], it pq.Item) error {
		if it.V == 0 {
			return sentinel
		}
		// Keep generating work so the queues are non-empty at abort time.
		if it.Pri > 0 {
			ctx.Push(it.Pri-1, uint32(it.V+1), 0)
			ctx.Push(it.Pri-1, uint32(it.V+2), 0)
		}
		return nil
	})
	// Seed a large frontier plus the poisoned vertex before the workers
	// start, guaranteeing non-empty queues when the error is returned.
	for v := uint32(1); v <= 2048; v++ {
		e.Push(20, v, 0)
	}
	e.Push(0, 0, 0) // the poisoned visitor
	e.Start()

	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := e.Wait()
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		if !errors.Is(r.err, sentinel) {
			t.Fatalf("Wait err = %v, want %v", r.err, sentinel)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Wait did not return: worker deadlocked on a non-empty queue")
	}
}

// TestVisitorErrorFirstWins pins "Wait returns the first error": with one
// worker and a strictly ordered queue, the lowest-priority poisoned visitor
// fails first and later failures must not replace its error.
func TestVisitorErrorFirstWins(t *testing.T) {
	errFirst := errors.New("first failure")
	errLater := errors.New("later failure")
	e := New[uint32](Config{Workers: 1}, func(_ *Ctx[uint32], it pq.Item) error {
		switch it.Pri {
		case 0:
			return errFirst
		case 1:
			return errLater
		}
		return nil
	})
	// Push before Start so the single queue orders all three items.
	e.Push(2, 30, 0)
	e.Push(1, 20, 0)
	e.Push(0, 10, 0)
	e.Start()
	_, err := e.Wait()
	if !errors.Is(err, errFirst) {
		t.Fatalf("Wait err = %v, want the first error %v", err, errFirst)
	}
}

// TestPushNoAllocs pins Ctx.Push at zero heap allocations once the outbox
// buckets and the destination heaps have grown to their working size: a
// visitor's way from the pushing visit through a bucket, a full-bucket
// delivery and the owner's heap only moves items. Ctx.Push runs once per
// relaxed edge, so an allocation here is one per edge of every traversal.
func TestPushNoAllocs(t *testing.T) {
	e := New[uint32](Config{Workers: 4}, nil)
	ctx := &Ctx[uint32]{engine: e, Worker: 0, Scratch: e.res.scratch[0], out: e.res.outs[0], stats: &e.res.stats[0]}
	var popped []pq.Item
	round := func() {
		for v := uint32(0); v < 4*batchSize; v++ {
			ctx.Push(uint64(v), v, 0)
		}
		ctx.out.flush()
		for _, q := range e.queues {
			popped = q.tryPopBatch(popped[:0], 4*batchSize)
			for range popped {
				e.term.Finish()
			}
		}
	}
	round() // warm: grows the buckets, the heaps and the pop buffer
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%d pushes through the outbox allocate %.1f times, want 0", 4*batchSize, allocs)
	}
}

// TestParkedSetNoAllocs pins a device runner's parked visitors at zero heap
// allocations once its groups and its completion list have grown: parking
// visitors on their fetches, posting their landings to the runner's parker,
// taking them in landing order and dropping each group reuse the group and
// list buffers; a post no group waits on (a finished traversal's) is dropped.
// A read that misses parks its visitor, so an allocation here is one per miss
// of every cold traversal, which the warm-cache traversal tests never take.
func TestParkedSetNoAllocs(t *testing.T) {
	var ps parkedSet
	p := &parker{ch: make(chan struct{}, 1)}
	fetches := make([]chan struct{}, 5)
	for i := range fetches {
		fetches[i] = make(chan struct{})
		close(fetches[i])
	}
	parked, stale := fetches[:4], fetches[4]
	round := func() {
		for v := 0; v < 32; v++ {
			ps.add(parked[v%len(parked)], pq.Item{V: uint64(v)}, nil)
		}
		p.Landed(stale)
		for i := len(parked) - 1; i >= 0; i-- {
			p.Landed(parked[i])
		}
		for i := len(parked) - 1; i >= 0; i-- {
			g := ps.landing(p)
			if g < 0 || ps.groups[g].wait != parked[i] {
				t.Fatalf("landing took group %d, want the one parked on fetch %d, the next posted", g, i)
			}
			ps.remove(g)
		}
		if g := ps.landing(p); g >= 0 || ps.n != 0 || len(p.landed) != 0 {
			t.Fatalf("with every group run, landing found group %d, %d visitors parked, %d posts kept", g, ps.n, len(p.landed))
		}
	}
	round() // warm: grows the groups, their buffers and the list
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("parking and dropping 32 visitors on 4 fetches allocates %.1f times, want 0", allocs)
	}
}
