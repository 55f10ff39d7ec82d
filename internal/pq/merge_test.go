package pq

import (
	"math/rand/v2"
	"testing"
)

// indexed returns an addressable heap over n vertices and its slot array.
func indexed(semiSort bool, n int) (*Heap, []int32) {
	h, slot := New(semiSort), make([]int32, n)
	h.Index(slot)
	return h, slot
}

// checkIndex fails t unless every item sits at its vertex's slot and every
// other slot is zero.
func checkIndex(t *testing.T, h *Heap, slot []int32) {
	t.Helper()
	if err := h.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	set := 0
	for _, s := range slot {
		if s != 0 {
			set++
		}
	}
	if set != h.Len() {
		t.Fatalf("%d slots set for %d queued items", set, h.Len())
	}
}

func TestMergeKeepsTheBetterVisitor(t *testing.T) {
	h, slot := indexed(false, 8)
	if h.Merge(Item{Pri: 9, V: 3, Aux: 1}) {
		t.Fatal("the first visitor for a vertex was reported dropped")
	}
	h.Merge(Item{Pri: 5, V: 4})
	if !h.Merge(Item{Pri: 2, V: 3, Aux: 7}) {
		t.Fatal("a decrease-key was not reported as a drop")
	}
	if !h.Merge(Item{Pri: 2, V: 3, Aux: 8}) || !h.Merge(Item{Pri: 6, V: 4, Aux: 9}) {
		t.Fatal("an equal or worse visitor was not dropped")
	}
	checkIndex(t, h, slot)
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want one item per vertex", h.Len())
	}
	want := []Item{{Pri: 2, V: 3, Aux: 7}, {Pri: 5, V: 4}}
	for i, w := range want {
		if got, _ := h.Pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
		checkIndex(t, h, slot)
	}
}

func TestResetClearsIndex(t *testing.T) {
	h, slot := indexed(true, 64)
	for v := uint64(0); v < 64; v += 3 {
		h.Merge(Item{Pri: 64 - v, V: v})
	}
	h.Reset()
	checkIndex(t, h, slot)
	if h.Len() != 0 || h.MaxLen() != 0 {
		t.Fatalf("after Reset Len = %d, MaxLen = %d", h.Len(), h.MaxLen())
	}
	h.Merge(Item{Pri: 1, V: 3}) // the vertex is queueable again
	if it, ok := h.Min(); !ok || it.V != 3 {
		t.Fatalf("Min after re-merge = %+v, %v", it, ok)
	}
}

// TestMergeMatchesPlainHeapKeepingBest is the property the engine relies
// on: over any interleaving of merges, pops and batch pops, an addressable
// heap pops what a plain heap fed the same items pops once each popped item
// that is not its vertex's best queued visitor is skipped — the visit-time
// drop the merge replaces — and its index stays consistent after every
// operation. Drains leave every slot zero.
func TestMergeMatchesPlainHeapKeepingBest(t *testing.T) {
	for _, semiSort := range []bool{true, false} {
		r := rand.New(rand.NewPCG(5, 9))
		const n = 48
		h, slot := indexed(semiSort, n)
		plain := New(semiSort)
		best := map[uint64]Item{} // the visitor the addressable heap keeps per queued vertex
		// next pops the plain heap past every item that is not its vertex's
		// kept visitor, and returns the kept one.
		next := func() Item {
			for {
				it, ok := plain.Pop()
				if !ok {
					t.Fatal("plain heap drained before the addressable one")
				}
				if b, ok := best[it.V]; ok && b.Pri == it.Pri {
					delete(best, it.V)
					return b
				}
			}
		}
		check := func(got Item, op int) {
			t.Helper()
			want := next()
			if got == want {
				return
			}
			// Without the semi-sort key equal priorities pop in either order.
			if semiSort || got.Pri != want.Pri || best[got.V] != got {
				t.Fatalf("semiSort=%v op %d: popped %+v, want %+v", semiSort, op, got, want)
			}
			delete(best, got.V)
			best[want.V] = want
			plain.Push(want)
		}
		var dst []Item
		for op := 0; op < 20000; op++ {
			switch k := r.IntN(10); {
			case k < 6:
				it := Item{Pri: r.Uint64N(32), V: r.Uint64N(n), Aux: r.Uint64()}
				b, queued := best[it.V]
				if dropped := h.Merge(it); dropped != queued {
					t.Fatalf("op %d: Merge reported dropped=%v with the vertex queued=%v", op, dropped, queued)
				}
				if !queued || it.Pri < b.Pri {
					best[it.V] = it
				}
				plain.Push(it)
			case k < 8:
				if got, ok := h.Pop(); ok {
					check(got, op)
				} else if len(best) != 0 {
					t.Fatalf("op %d: empty with %d vertices queued", op, len(best))
				}
			default:
				dst = h.PopBatch(dst[:0], r.IntN(5))
				for _, got := range dst {
					check(got, op)
				}
			}
			if h.Len() != len(best) {
				t.Fatalf("op %d: Len = %d, %d vertices queued", op, h.Len(), len(best))
			}
			checkIndex(t, h, slot)
		}
		for h.Len() > 0 {
			got, _ := h.Pop()
			check(got, -1)
		}
		checkIndex(t, h, slot)
	}
}

// TestMergeSteadyStateNoAllocs: an addressable heap's merges and pops only
// move items and slots once its backing array has grown.
func TestMergeSteadyStateNoAllocs(t *testing.T) {
	h, _ := indexed(true, 64)
	dst := make([]Item, 0, 64)
	cycle := func() {
		for i := uint64(0); i < 128; i++ {
			h.Merge(Item{Pri: i * 7 % 13, V: i % 64})
		}
		dst = h.PopBatch(dst[:0], 32)
		for h.Len() > 0 {
			h.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("merge/pop allocates %.1f times, want 0", allocs)
	}
}
