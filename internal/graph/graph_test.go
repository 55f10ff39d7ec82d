package graph

import (
	"testing"
)

func mustBuild[V Vertex](t *testing.T, n uint64, weighted, dedup bool, edges []Edge[V]) *CSR[V] {
	t.Helper()
	g, err := FromEdges(n, weighted, dedup, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustBuild[uint32](t, 0, false, false, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestSingleVertexNoEdges(t *testing.T) {
	g := mustBuild[uint32](t, 1, false, false, nil)
	if g.NumVertices() != 1 {
		t.Fatalf("n = %d, want 1", g.NumVertices())
	}
	if g.Degree(0) != 0 {
		t.Fatalf("degree = %d, want 0", g.Degree(0))
	}
	ts, ws, err := g.Neighbors(0, nil)
	if err != nil || len(ts) != 0 || ws != nil {
		t.Fatalf("neighbors = %v %v %v", ts, ws, err)
	}
}

func TestBasicCSRLayout(t *testing.T) {
	g := mustBuild(t, 4, true, false, []Edge[uint32]{
		{Src: 2, Dst: 0, W: 9},
		{Src: 0, Dst: 1, W: 2},
		{Src: 0, Dst: 3, W: 5},
		{Src: 2, Dst: 3, W: 1},
	})
	if g.NumEdges() != 4 {
		t.Fatalf("m = %d, want 4", g.NumEdges())
	}
	ts, ws, _ := g.Neighbors(0, nil)
	if len(ts) != 2 || ts[0] != 1 || ts[1] != 3 || ws[0] != 2 || ws[1] != 5 {
		t.Fatalf("adj(0) = %v %v", ts, ws)
	}
	ts, _, _ = g.Neighbors(1, nil)
	if len(ts) != 0 {
		t.Fatalf("adj(1) = %v, want empty", ts)
	}
	ts, ws, _ = g.Neighbors(2, nil)
	if len(ts) != 2 || ts[0] != 0 || ts[1] != 3 || ws[0] != 9 || ws[1] != 1 {
		t.Fatalf("adj(2) = %v %v", ts, ws)
	}
	if g.Degree(2) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees: %d %d", g.Degree(2), g.Degree(3))
	}
}

func TestDedupKeepsMinWeight(t *testing.T) {
	g := mustBuild(t, 2, true, true, []Edge[uint32]{
		{Src: 0, Dst: 1, W: 7},
		{Src: 0, Dst: 1, W: 3},
		{Src: 0, Dst: 1, W: 5},
	})
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", g.NumEdges())
	}
	if w := g.WeightsRaw()[0]; w != 3 {
		t.Fatalf("weight = %d, want min 3", w)
	}
}

func TestDedupDisabledKeepsParallelEdges(t *testing.T) {
	g := mustBuild(t, 2, false, false, []Edge[uint32]{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1},
	})
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
}

func TestSelfLoopsPreserved(t *testing.T) {
	g := mustBuild(t, 2, false, true, []Edge[uint32]{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 1},
	})
	ts, _, _ := g.Neighbors(0, nil)
	if len(ts) != 2 || ts[0] != 0 {
		t.Fatalf("adj(0) = %v, want self-loop first", ts)
	}
}

func TestSymmetrize(t *testing.T) {
	b := NewBuilder[uint32](3, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 2, 1) // self-loop must not be duplicated
	b.Symmetrize()
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 5 { // 0-1, 1-0, 1-2, 2-1, 2-2
		t.Fatalf("m = %d, want 5", g.NumEdges())
	}
	ts, _, _ := g.Neighbors(1, nil)
	if len(ts) != 2 || ts[0] != 0 || ts[1] != 2 {
		t.Fatalf("adj(1) = %v", ts)
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	_, err := FromEdges(2, false, false, []Edge[uint32]{{Src: 0, Dst: 5}})
	if err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
}

// TestBuilderIsSingleShot: a second Build is an error, not an edgeless
// graph, and adding an edge or symmetrizing after Build panics.
func TestBuilderIsSingleShot(t *testing.T) {
	b := NewBuilder[uint32](2, false)
	b.AddEdge(0, 1, 1)
	if g, err := b.Build(true); err != nil || g.NumEdges() != 1 {
		t.Fatalf("first Build: %v", err)
	}
	if g, err := b.Build(true); err == nil {
		t.Fatalf("second Build returned a graph of %d edges and no error", g.NumEdges())
	}
	for name, use := range map[string]func(){
		"AddEdge":    func() { b.AddEdge(1, 0, 1) },
		"AddEdges":   func() { b.AddEdges([]Edge[uint32]{{Src: 1, Dst: 0}}) },
		"Symmetrize": b.Symmetrize,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Build did not panic", name)
				}
			}()
			use()
		}()
	}
}

func TestEdgeWeightUnweightedIsOne(t *testing.T) {
	g := mustBuild(t, 2, false, false, []Edge[uint32]{{Src: 0, Dst: 1, W: 42}})
	// No weight array at all: every reader takes nil weights as weight 1.
	if _, ws, _ := g.Neighbors(0, nil); ws != nil {
		t.Fatalf("unweighted build kept weights %v, want nil", ws)
	}
	if g.Weighted() {
		t.Fatal("graph should be unweighted")
	}
}

func TestForEachEdgeVisitsAll(t *testing.T) {
	edges := []Edge[uint32]{
		{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 3}, {Src: 2, Dst: 0, W: 4},
	}
	g := mustBuild(t, 3, true, false, edges)
	var got []Edge[uint32]
	g.ForEachEdge(func(u, v uint32, w Weight) {
		got = append(got, Edge[uint32]{Src: u, Dst: v, W: w})
	})
	if len(got) != 3 {
		t.Fatalf("visited %d edges, want 3", len(got))
	}
	for i, e := range got {
		if e != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, e, edges[i])
		}
	}
}

func TestUint64Vertices(t *testing.T) {
	g := mustBuild(t, 3, false, false, []Edge[uint64]{
		{Src: 0, Dst: 2}, {Src: 2, Dst: 1},
	})
	ts, _, _ := g.Neighbors(uint64(2), nil)
	if len(ts) != 1 || ts[0] != 1 {
		t.Fatalf("adj(2) = %v", ts)
	}
	if NoVertex[uint64]() != ^uint64(0) {
		t.Fatal("NoVertex[uint64] mismatch")
	}
	if NoVertex[uint32]() != ^uint32(0) {
		t.Fatal("NoVertex[uint32] mismatch")
	}
}

func TestNewCSRRawValidation(t *testing.T) {
	cases := []struct {
		name    string
		offsets []uint64
		targets []uint32
		weights []Weight
		wantErr bool
	}{
		{"valid", []uint64{0, 1, 2}, []uint32{1, 0}, nil, false},
		{"valid weighted", []uint64{0, 2}, []uint32{0, 0}, []Weight{1, 2}, false},
		{"empty offsets", nil, nil, nil, true},
		{"bad span", []uint64{0, 1}, []uint32{1, 0}, nil, true},
		{"decreasing", []uint64{0, 2, 1, 2}, []uint32{0, 0}, nil, true},
		{"weights mismatch", []uint64{0, 2}, []uint32{0, 0}, []Weight{1}, true},
		{"nonzero first", []uint64{1, 2}, []uint32{0, 0}, nil, true},
	}
	for _, c := range cases {
		_, err := NewCSRRaw(c.offsets, c.targets, c.weights)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

func TestBuilderSingleShot(t *testing.T) {
	b := NewBuilder[uint32](2, false)
	b.AddEdge(0, 1, 1)
	if len(b.edges) != 1 {
		t.Fatalf("pending = %d, want 1", len(b.edges))
	}
	if _, err := b.Build(false); err != nil {
		t.Fatal(err)
	}
	if len(b.edges) != 0 {
		t.Fatal("builder retained edges after Build")
	}
}
