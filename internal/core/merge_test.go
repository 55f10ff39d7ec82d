package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/pq"
)

// within runs a traversal, failing t if it has not terminated within 5 s:
// a lost Finish is a hang, not a wrong answer. The timer is the verdict of
// the failing side only.
func within(t *testing.T, run func() (Stats, error)) Stats {
	t.Helper()
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := run()
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.st
	case <-time.After(5 * time.Second):
		t.Fatal("the traversal did not terminate: a merged visitor's Finish was lost")
		return Stats{}
	}
}

// TestLastVisitorMergedTerminates runs a merging engine whose last push is
// merged away. One runner on a device-style engine pops one visitor at a
// time and delivers after every visit. Seeds a@0 and b@1 are queued before
// Start; visiting a pushes one more visitor for b, the traversal's last:
//
//   - "worse": b@7, which meets the queued b@1 and is dropped unrun;
//   - "better": b@0 with Aux 42, which replaces the queued b@1.
//
// Either way the dropped visitor must be retired — finished — so that the
// traversal terminates once the surviving b has run with the Terminator at
// zero, b is visited once with the survivor's priority and payload, and
// Visits + Merged = Pushes + seeds.
func TestLastVisitorMergedTerminates(t *testing.T) {
	const a, b = 0, 1
	for name, push := range map[string]pq.Item{
		"worse":  {Pri: 7, V: b, Aux: 9},
		"better": {Pri: 0, V: b, Aux: 42},
	} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var visited []pq.Item
			visit := func(ctx *Ctx[uint32], it pq.Item) error {
				mu.Lock()
				visited = append(visited, it)
				mu.Unlock()
				if it.V == a {
					ctx.Push(push.Pri, uint32(push.V), push.Aux)
				}
				return nil
			}
			e := New[uint32](Config{Workers: 1}, visit)
			e.DeliverEveryVisit()
			e.mergeVisitors(make([]int32, 2))
			e.Push(0, a, 0)
			e.Push(1, b, 5)
			e.Start()
			st := within(t, e.Wait)
			want := pq.Item{Pri: 1, V: b, Aux: 5}
			if push.Pri < want.Pri {
				want = push
			}
			if len(visited) != 2 || visited[1] != want {
				t.Fatalf("visited %+v, want a then %+v", visited, want)
			}
			if st.Visits != 2 || st.Merged != 1 || st.Pushes != 1 {
				t.Fatalf("visits %d, merged %d, pushes %d; want 2, 1, 1", st.Visits, st.Merged, st.Pushes)
			}
			if o := e.term.Outstanding(); o != 0 {
				t.Errorf("the terminator counts %d visitors after Wait", o)
			}
		})
	}
}

// duplicateQueue returns a merging queue holding two visitors for vertex 1,
// the second pushed past the merge.
func duplicateQueue() *workQueue {
	q := &workQueue{heap: pq.New(false), term: NewTerminator()}
	q.heap.Index(make([]int32, 4))
	q.pushBatch([]pq.Item{{Pri: 5, V: 1}})
	q.heap.Push(pq.Item{Pri: 4, V: 1})
	return q
}
