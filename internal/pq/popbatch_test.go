package pq

import (
	"math/rand/v2"
	"testing"
)

func TestHeapPopBatchMatchesSuccessivePops(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	a, b := New(true), New(true)
	for i := 0; i < 500; i++ {
		it := Item{Pri: r.Uint64N(64), V: r.Uint64()}
		a.Push(it)
		b.Push(it)
	}
	var batch []Item
	for a.Len() > 0 {
		batch = a.PopBatch(batch[:0], 7)
		if len(batch) == 0 {
			t.Fatal("PopBatch returned nothing from a non-empty heap")
		}
		for _, got := range batch {
			want, ok := b.Pop()
			if !ok || got != want {
				t.Fatalf("PopBatch item %+v, successive Pop gave %+v (ok=%v)", got, want, ok)
			}
		}
	}
	if b.Len() != 0 {
		t.Fatalf("reference heap still holds %d items", b.Len())
	}
}

func TestHeapPopBatchBounds(t *testing.T) {
	h := New(false)
	if got := h.PopBatch(nil, 4); len(got) != 0 {
		t.Fatalf("empty heap PopBatch = %v", got)
	}
	h.Push(Item{Pri: 3, V: 30})
	h.Push(Item{Pri: 1, V: 10})
	got := h.PopBatch(nil, 8) // k beyond Len drains and stops
	if len(got) != 2 || got[0].V != 10 || got[1].V != 30 {
		t.Fatalf("PopBatch = %v, want items 10 then 30", got)
	}
	if h.Len() != 0 {
		t.Fatalf("heap not drained: %d left", h.Len())
	}
	// dst is appended to, preserving the caller's prefix.
	h.Push(Item{Pri: 5, V: 50})
	pre := []Item{{Pri: 99, V: 99}}
	got = h.PopBatch(pre, 1)
	if len(got) != 2 || got[0].V != 99 || got[1].V != 50 {
		t.Fatalf("PopBatch with prefix = %v", got)
	}
}
