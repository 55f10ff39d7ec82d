package core

import (
	"testing"

	"repro/internal/graph"
)

func TestPathToSSSP(t *testing.T) {
	g := paperFigure3Graph(t)
	res, err := SSSP[uint32](g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	path, err := res.PathTo(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 2, 3, 4} // dist 5+1+2 = 8, the shortest route
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Path to the source itself is just the source.
	path, err = res.PathTo(0)
	if err != nil || len(path) != 1 || path[0] != 0 {
		t.Fatalf("path to source = %v, %v", path, err)
	}
	// Path weights must sum to the reported distance.
	sum := graph.Dist(0)
	for i := 0; i+1 < len(want); i++ {
		ts, ws, _ := g.Neighbors(want[i], nil)
		for j, tgt := range ts {
			if tgt == want[i+1] {
				sum += graph.Dist(ws[j])
			}
		}
	}
	if sum != res.Dist[4] {
		t.Fatalf("path weight %d != dist %d", sum, res.Dist[4])
	}
}

func TestPathToErrors(t *testing.T) {
	b := graph.NewBuilder[uint32](3, false)
	b.AddEdge(0, 1, 1)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS[uint32](g, 0, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.PathTo(2); err == nil {
		t.Fatal("path to unreached vertex should error")
	}
	if _, err := res.PathTo(99); err == nil {
		t.Fatal("out-of-range vertex should error")
	}
	path, err := res.PathTo(1)
	if err != nil || len(path) != 2 || path[0] != 0 || path[1] != 1 {
		t.Fatalf("path = %v, %v", path, err)
	}
}

func TestPathToDetectsCorruptParents(t *testing.T) {
	res := &BFSResult[uint32]{
		Level:  []graph.Dist{0, 1, 1},
		Parent: []uint32{0, 2, 1}, // 1 <-> 2 cycle, never reaches source
	}
	if _, err := res.PathTo(1); err == nil {
		t.Fatal("parent cycle not detected")
	}
	// A reached vertex whose parent is no vertex at all.
	res = &BFSResult[uint32]{
		Level:  []graph.Dist{0, 1},
		Parent: []uint32{0, graph.NoVertex[uint32]()},
	}
	if _, err := res.PathTo(1); err == nil {
		t.Fatal("out-of-range parent not detected")
	}
}
