package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
% also a comment
0 1
1 2

2 0
`
	g, err := ReadEdgeList[uint32](strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 || g.Weighted() {
		t.Fatalf("n=%d m=%d weighted=%v", g.NumVertices(), g.NumEdges(), g.Weighted())
	}
	ts, _, _ := g.Neighbors(1, nil)
	if len(ts) != 1 || ts[0] != 2 {
		t.Fatalf("adj(1) = %v", ts)
	}
}

func TestReadEdgeListWeighted(t *testing.T) {
	in := "0 1 5\n1 0 7\n"
	g, err := ReadEdgeList[uint32](strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weights not detected")
	}
	if w := g.WeightsRaw()[0]; w != 5 {
		t.Fatalf("weight = %d", w)
	}
}

func TestReadEdgeListMinVertices(t *testing.T) {
	g, err := ReadEdgeList[uint32](strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("n = %d, want 10", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"too few fields", "0\n"},
		{"too many fields", "0 1 2 3\n"},
		{"bad src", "x 1\n"},
		{"bad dst", "0 y\n"},
		{"bad weight", "0 1 z\n"},
		{"inconsistent weights", "0 1 5\n1 2\n"},
		{"negative src", "-1 2\n"},
	}
	for _, c := range cases {
		if _, err := ReadEdgeList[uint32](strings.NewReader(c.in), 0); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestReadEdgeListVertexWidth(t *testing.T) {
	// 2^33 exceeds uint32; the reader must reject it rather than truncate.
	if _, err := ReadEdgeList[uint32](strings.NewReader("8589934592 0\n"), 0); err == nil {
		t.Fatal("oversized endpoint accepted for uint32")
	}
	g, err := ReadEdgeList[uint64](strings.NewReader("7 0\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 {
		t.Fatalf("n = %d", g.NumVertices())
	}
}

func TestEdgeListEmptyInput(t *testing.T) {
	g, err := ReadEdgeList[uint32](strings.NewReader("# nothing\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestWriteReadEdgeListRoundTrip(t *testing.T) {
	g := mustBuild(t, 6, true, false, []Edge[uint32]{
		{Src: 0, Dst: 3, W: 2}, {Src: 3, Dst: 5, W: 9}, {Src: 5, Dst: 0, W: 1},
	})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList[uint32](&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() || !got.Weighted() {
		t.Fatalf("round trip: m=%d weighted=%v", got.NumEdges(), got.Weighted())
	}
	g.ForEachEdge(func(u, v uint32, w Weight) {
		found := false
		got.ForEachEdge(func(u2, v2 uint32, w2 Weight) {
			if u == u2 && v == v2 && w == w2 {
				found = true
			}
		})
		if !found {
			t.Fatalf("edge (%d,%d,%d) lost", u, v, w)
		}
	})
}

// Property: any generated graph survives a text round trip (modulo dedup,
// which FromEdges already applied).
func TestQuickEdgeListRoundTrip(t *testing.T) {
	type rawEdge struct {
		S, D uint8
		W    uint8
	}
	f := func(raw []rawEdge, weighted bool) bool {
		const n = 256
		in := make([]Edge[uint32], len(raw))
		for i, e := range raw {
			in[i] = Edge[uint32]{Src: uint32(e.S), Dst: uint32(e.D), W: Weight(e.W)}
		}
		g, err := FromEdges(n, weighted, true, in)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		got, err := ReadEdgeList[uint32](&buf, n)
		if err != nil {
			return false
		}
		if got.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		i := 0
		var want []Edge[uint32]
		g.ForEachEdge(func(u, v uint32, w Weight) {
			ww := w
			if !g.Weighted() {
				ww = 0 // unweighted text format drops the weight column
			}
			want = append(want, Edge[uint32]{Src: u, Dst: v, W: ww})
		})
		got.ForEachEdge(func(u, v uint32, w Weight) {
			e := Edge[uint32]{Src: u, Dst: v, W: w}
			if !got.Weighted() {
				e.W = 0
			}
			if i >= len(want) || want[i] != e {
				ok = false
			}
			i++
		})
		return ok && i == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListLimit(t *testing.T) {
	if _, err := ReadEdgeListLimit[uint32](strings.NewReader("5000 0\n"), 0, 1000); err == nil {
		t.Fatal("limit not enforced")
	}
	g, err := ReadEdgeListLimit[uint32](strings.NewReader("500 0\n"), 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 501 {
		t.Fatalf("n = %d", g.NumVertices())
	}
}
