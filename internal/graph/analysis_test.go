package graph

import (
	"testing"
	"testing/quick"
)

func TestTranspose(t *testing.T) {
	g := mustBuild(t, 4, true, false, []Edge[uint32]{
		{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 3}, {Src: 0, Dst: 2, W: 4},
	})
	tr, err := Transpose(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != 3 || !tr.Weighted() {
		t.Fatalf("m=%d weighted=%v", tr.NumEdges(), tr.Weighted())
	}
	ts, ws, _ := tr.Neighbors(2, nil)
	if len(ts) != 2 || ts[0] != 0 || ts[1] != 1 || ws[0] != 4 || ws[1] != 3 {
		t.Fatalf("adj(2) = %v %v", ts, ws)
	}
	if d := tr.Degree(0); d != 0 {
		t.Fatalf("transposed degree(0) = %d", d)
	}
}

// Property: transposing twice restores the original edge multiset.
func TestQuickTransposeInvolution(t *testing.T) {
	type rawEdge struct {
		S, D uint8
		W    uint8
	}
	f := func(raw []rawEdge) bool {
		const n = 128
		in := make([]Edge[uint32], len(raw))
		for i, e := range raw {
			in[i] = Edge[uint32]{Src: uint32(e.S) % n, Dst: uint32(e.D) % n, W: Weight(e.W)}
		}
		g, err := FromEdges(n, true, false, in)
		if err != nil {
			return false
		}
		t1, err := Transpose(g)
		if err != nil {
			return false
		}
		t2, err := Transpose(t1)
		if err != nil {
			return false
		}
		if t2.NumEdges() != g.NumEdges() {
			return false
		}
		var a, b []Edge[uint32]
		g.ForEachEdge(func(u, v uint32, w Weight) { a = append(a, Edge[uint32]{u, v, w}) })
		t2.ForEachEdge(func(u, v uint32, w Weight) { b = append(b, Edge[uint32]{u, v, w}) })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreesEmptyGraph(t *testing.T) {
	g := mustBuild[uint32](t, 0, false, false, nil)
	st := DegreesOf[uint32](g)
	if st.NumVerts != 0 || st.NumEdges != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDegreesStarGraph(t *testing.T) {
	edges := make([]Edge[uint32], 0, 99)
	for i := uint32(1); i < 100; i++ {
		edges = append(edges, Edge[uint32]{Src: 0, Dst: i})
	}
	g := mustBuild(t, 100, false, false, edges)
	st := DegreesOf[uint32](g)
	if st.Max != 99 || st.Min != 0 || st.Median != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Isolated != 99 {
		t.Fatalf("isolated = %d, want 99 (all leaves have out-degree 0)", st.Isolated)
	}
	if st.HubFrac != 1.0 {
		t.Fatalf("hub frac = %f, want 1.0 (the hub owns every edge)", st.HubFrac)
	}
	if st.Mean < 0.98 || st.Mean > 1.0 {
		t.Fatalf("mean = %f", st.Mean)
	}
}

func TestDegreesUniformGraph(t *testing.T) {
	var edges []Edge[uint32]
	for i := uint32(0); i < 50; i++ {
		edges = append(edges, Edge[uint32]{Src: i, Dst: (i + 1) % 50})
	}
	g := mustBuild(t, 50, false, false, edges)
	st := DegreesOf[uint32](g)
	if st.Min != 1 || st.Max != 1 || st.P99 != 1 || st.Isolated != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HubFrac > 0.05 {
		t.Fatalf("uniform ring hub frac = %f", st.HubFrac)
	}
}
