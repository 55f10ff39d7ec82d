package pq

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHeap(t *testing.T) {
	h := New(false)
	if h.Len() != 0 {
		t.Fatalf("new heap Len = %d, want 0", h.Len())
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
}

func TestPushPopSingle(t *testing.T) {
	h := New(false)
	h.Push(Item{Pri: 7, V: 3, Aux: 9})
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	it, ok := h.Pop()
	if !ok || it.Pri != 7 || it.V != 3 || it.Aux != 9 {
		t.Fatalf("Pop = %+v ok=%v", it, ok)
	}
	if h.Len() != 0 {
		t.Fatalf("Len after pop = %d, want 0", h.Len())
	}
}

func TestPopOrderByPriority(t *testing.T) {
	h := New(false)
	pris := []uint64{5, 1, 9, 3, 3, 0, 12, 7}
	for _, p := range pris {
		h.Push(Item{Pri: p})
	}
	sorted := append([]uint64(nil), pris...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		it, ok := h.Pop()
		if !ok {
			t.Fatalf("Pop %d: heap empty early", i)
		}
		if it.Pri != want {
			t.Fatalf("Pop %d: pri = %d, want %d", i, it.Pri, want)
		}
	}
}

func TestSemiSortBreaksTiesByVertex(t *testing.T) {
	h := New(true)
	vs := []uint64{9, 2, 7, 0, 5}
	for _, v := range vs {
		h.Push(Item{Pri: 4, V: v})
	}
	h.Push(Item{Pri: 3, V: 100}) // lower priority dominates regardless of id
	want := []uint64{100, 0, 2, 5, 7, 9}
	for i, w := range want {
		it, ok := h.Pop()
		if !ok || it.V != w {
			t.Fatalf("pop %d: got v=%d ok=%v, want v=%d", i, it.V, ok, w)
		}
	}
}

func TestWithoutSemiSortTiesUnordered(t *testing.T) {
	// Not an ordering guarantee — just confirm all tied items come out.
	h := New(false)
	for v := uint64(0); v < 10; v++ {
		h.Push(Item{Pri: 1, V: v})
	}
	seen := make(map[uint64]bool)
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		seen[it.V] = true
	}
	if len(seen) != 10 {
		t.Fatalf("popped %d distinct items, want 10", len(seen))
	}
}

func TestMaxLenHighWaterMark(t *testing.T) {
	h := New(false)
	for i := 0; i < 5; i++ {
		h.Push(Item{Pri: uint64(i)})
	}
	h.Pop()
	h.Pop()
	h.Push(Item{Pri: 0})
	if h.MaxLen() != 5 {
		t.Fatalf("MaxLen = %d, want 5", h.MaxLen())
	}
}

func TestInterleavedPushPop(t *testing.T) {
	h := New(true)
	r := rand.New(rand.NewPCG(1, 2))
	var mirror []Item
	less := func(a, b Item) bool {
		if a.Pri != b.Pri {
			return a.Pri < b.Pri
		}
		return a.V < b.V
	}
	for op := 0; op < 5000; op++ {
		if r.IntN(3) != 0 || len(mirror) == 0 {
			it := Item{Pri: r.Uint64N(50), V: r.Uint64N(1000), Aux: r.Uint64()}
			h.Push(it)
			mirror = append(mirror, it)
		} else {
			got, ok := h.Pop()
			if !ok {
				t.Fatal("heap empty but mirror is not")
			}
			minIdx := 0
			for i, it := range mirror {
				if less(it, mirror[minIdx]) {
					minIdx = i
				}
			}
			if got.Pri != mirror[minIdx].Pri || got.V != mirror[minIdx].V {
				t.Fatalf("op %d: pop = (%d,%d), want (%d,%d)",
					op, got.Pri, got.V, mirror[minIdx].Pri, mirror[minIdx].V)
			}
			mirror = append(mirror[:minIdx], mirror[minIdx+1:]...)
		}
	}
}

// Property: for any push sequence, popping drains items in non-decreasing
// priority order and returns exactly the pushed multiset of priorities.
func TestQuickHeapOrdering(t *testing.T) {
	f := func(pris []uint64) bool {
		h := New(false)
		for _, p := range pris {
			h.Push(Item{Pri: p})
		}
		var got []uint64
		for {
			it, ok := h.Pop()
			if !ok {
				break
			}
			got = append(got, it.Pri)
		}
		if len(got) != len(pris) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		want := append([]uint64(nil), pris...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with semi-sort enabled, pops are lexicographically ordered on
// (Pri, V).
func TestQuickSemiSortLexOrder(t *testing.T) {
	f := func(raw []uint32) bool {
		h := New(true)
		for _, r := range raw {
			h.Push(Item{Pri: uint64(r % 16), V: uint64(r / 16 % 64)})
		}
		var prev Item
		first := true
		for {
			it, ok := h.Pop()
			if !ok {
				break
			}
			if !first {
				if it.Pri < prev.Pri || (it.Pri == prev.Pri && it.V < prev.V) {
					return false
				}
			}
			prev, first = it, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
