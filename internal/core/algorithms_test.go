package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
)

func randomDigraph(t testing.TB, n uint64, m int, weighted bool, seed uint64) *graph.CSR[uint32] {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed+1))
	edges := make([]graph.Edge[uint32], 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge[uint32]{
			Src: uint32(r.Uint64N(n)),
			Dst: uint32(r.Uint64N(n)),
			W:   graph.Weight(r.Uint64N(100)),
		})
	}
	g, err := graph.FromEdges(n, weighted, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomUndirected(t testing.TB, n uint64, m int, seed uint64) *graph.CSR[uint32] {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed+1))
	b := graph.NewBuilder[uint32](n, false)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(r.Uint64N(n)), uint32(r.Uint64N(n)), 1)
	}
	b.Symmetrize()
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBFSMatchesSerialOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomDigraph(t, 300, 1500, false, seed)
		want, err := baseline.SerialBFS(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSweep {
			res, err := BFS[uint32](g, 0, Config{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if res.Level[v] != want[v] {
					t.Fatalf("seed=%d workers=%d: level[%d] = %d, want %d",
						seed, w, v, res.Level[v], want[v])
				}
			}
		}
	}
}

func TestSSSPMatchesDijkstraOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomDigraph(t, 300, 1500, true, seed)
		wantDist, _, err := baseline.SerialDijkstra(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSweep {
			res, err := SSSP[uint32](g, 0, Config{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for v := range wantDist {
				if res.Dist[v] != wantDist[v] {
					t.Fatalf("seed=%d workers=%d: dist[%d] = %d, want %d",
						seed, w, v, res.Dist[v], wantDist[v])
				}
			}
		}
	}
}

func TestCCMatchesSerialOnRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomUndirected(t, 400, 600, seed) // sparse: many components
		want, err := baseline.SerialCC(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerSweep {
			res, err := CC[uint32](g, Config{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if res.ID[v] != want[v] {
					t.Fatalf("seed=%d workers=%d: id[%d] = %d, want %d",
						seed, w, v, res.ID[v], want[v])
				}
			}
		}
	}
}

func TestSSSPParentsFormShortestPathTree(t *testing.T) {
	g := randomDigraph(t, 200, 1000, true, 42)
	res, err := SSSP[uint32](g, 0, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0] != 0 {
		t.Fatalf("dist[src] = %d", res.Dist[0])
	}
	if res.Parent[0] != 0 {
		t.Fatalf("parent[src] = %d, want self", res.Parent[0])
	}
	// Walking parents from any reached vertex must reach the source with
	// dist decreasing along the way.
	for v := uint32(0); v < 200; v++ {
		if !res.Reached(v) {
			if res.Parent[v] != graph.NoVertex[uint32]() {
				t.Fatalf("unreached vertex %d has parent %d", v, res.Parent[v])
			}
			continue
		}
		cur := v
		for steps := 0; cur != 0; steps++ {
			if steps > 200 {
				t.Fatalf("parent chain from %d does not reach source", v)
			}
			p := res.Parent[cur]
			if !res.Reached(p) || res.Dist[p] >= res.Dist[cur] && cur != 0 && res.Dist[cur] != res.Dist[p] {
				// allow equal dist only via zero-weight edges
				if res.Dist[p] > res.Dist[cur] {
					t.Fatalf("parent dist increases: %d(%d) -> %d(%d)", cur, res.Dist[cur], p, res.Dist[p])
				}
			}
			cur = p
		}
	}
}

func TestBFSParentEdgesExist(t *testing.T) {
	g := randomDigraph(t, 150, 700, false, 9)
	res, err := BFS[uint32](g, 3, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	adj := make(map[[2]uint32]bool)
	g.ForEachEdge(func(u, v uint32, _ graph.Weight) { adj[[2]uint32{u, v}] = true })
	for v := uint32(0); v < 150; v++ {
		if !res.Reached(v) || v == 3 {
			continue
		}
		p := res.Parent[v]
		if !adj[[2]uint32{p, v}] {
			t.Fatalf("parent edge %d->%d does not exist", p, v)
		}
		if res.Level[v] != res.Level[p]+1 {
			t.Fatalf("level[%d]=%d but parent level %d", v, res.Level[v], res.Level[p])
		}
	}
}

func TestBFSOnChainIsSerialButCorrect(t *testing.T) {
	// Figure 2: a chain has no independent pathways; the traversal must
	// still produce exact levels at any worker count.
	g, err := gen.Chain[uint32](500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS[uint32](g, 0, Config{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 500; v++ {
		if res.Level[v] != graph.Dist(v) {
			t.Fatalf("level[%d] = %d", v, res.Level[v])
		}
	}
	if got := res.NumLevels(); got != 500 {
		t.Fatalf("levels = %d, want 500", got)
	}
	if res.FracVisited() != 1.0 {
		t.Fatalf("frac = %f", res.FracVisited())
	}
}

func TestBFSUnreachableVertices(t *testing.T) {
	// Two disjoint chains; BFS from 0 must not reach the second chain.
	b := graph.NewBuilder[uint32](6, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS[uint32](g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(3); v < 6; v++ {
		if res.Reached(v) {
			t.Fatalf("vertex %d should be unreachable", v)
		}
	}
	if f := res.FracVisited(); f != 0.5 {
		t.Fatalf("frac visited = %f, want 0.5", f)
	}
	if res.NumLevels() != 3 {
		t.Fatalf("levels = %d, want 3", res.NumLevels())
	}
}

func TestPaperFigure3Graph(t *testing.T) {
	// The exact 5-vertex weighted digraph of Figure 3. Final labels from the
	// paper's walk-through: dist = [0, 2, 5, 6, 8].
	g := paperFigure3Graph(t)
	res, err := SSSP[uint32](g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Dist{0, 2, 5, 6, 8}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], d)
		}
	}
	// The example is constructed so label correction happens (vertices 2, 3,
	// 4 receive competing path lengths); with a single worker and semi-sorted
	// queues the traversal is still correct.
	res1, err := SSSP[uint32](g, 0, Config{Workers: 1, SemiSort: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range want {
		if res1.Dist[v] != d {
			t.Fatalf("1-worker dist[%d] = %d, want %d", v, res1.Dist[v], d)
		}
	}
}

// paperFigure3Graph reconstructs the weighted digraph of Figure 3:
// 0->1 (2), 0->2 (5), 1->2 (4), 1->3 (7), 2->3 (1), 3->0 (1), 3->4 (2+3=5?).
// The figure's edges: 0-1 w2, 0-2 w5, 1-2 w4, 1-3 w7, 2-3 w1, 3-0 w1,
// 3-4 w2, 4-0 w3. Weights chosen to force multiple visits per vertex.
func paperFigure3Graph(t testing.TB) *graph.CSR[uint32] {
	t.Helper()
	b := graph.NewBuilder[uint32](5, true)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 2, 5)
	b.AddEdge(1, 2, 4)
	b.AddEdge(1, 3, 7)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 1)
	b.AddEdge(3, 4, 2)
	b.AddEdge(4, 0, 3)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCCOnDisjointCliques(t *testing.T) {
	// 3 cliques of 4 vertices: components {0..3}, {4..7}, {8..11}.
	b := graph.NewBuilder[uint32](12, false)
	for c := uint32(0); c < 3; c++ {
		base := c * 4
		for i := uint32(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(base+i, base+j, 1)
			}
		}
	}
	b.Symmetrize()
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CC[uint32](g, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3", res.NumComponents())
	}
	for v := uint32(0); v < 12; v++ {
		if res.ID[v] != (v/4)*4 {
			t.Fatalf("id[%d] = %d, want %d", v, res.ID[v], (v/4)*4)
		}
	}
	sizes := res.Sizes()
	for label, size := range sizes {
		if size != 4 {
			t.Fatalf("component %d size = %d, want 4", label, size)
		}
	}
}

func TestCCEmptyAndSingletons(t *testing.T) {
	g, err := graph.FromEdges[uint32](5, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CC[uint32](g, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents() != 5 {
		t.Fatalf("components = %d, want 5 singletons", res.NumComponents())
	}

	empty, err := graph.FromEdges[uint32](0, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = CC[uint32](empty, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents() != 0 {
		t.Fatalf("components = %d, want 0", res.NumComponents())
	}
}

func TestSourceOutOfRange(t *testing.T) {
	g, err := graph.FromEdges[uint32](2, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BFS[uint32](g, 5, Config{}); err == nil {
		t.Fatal("BFS accepted out-of-range source")
	}
	if _, err := SSSP[uint32](g, 5, Config{}); err == nil {
		t.Fatal("SSSP accepted out-of-range source")
	}
}

func TestZeroWeightEdges(t *testing.T) {
	b := graph.NewBuilder[uint32](3, true)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SSSP[uint32](g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 3; v++ {
		if res.Dist[v] != 0 {
			t.Fatalf("dist[%d] = %d, want 0", v, res.Dist[v])
		}
	}
}

func TestUint64VertexTraversal(t *testing.T) {
	b := graph.NewBuilder[uint64](4, true)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 2, 4)
	b.AddEdge(0, 2, 10)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SSSP[uint64](g, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[2] != 7 {
		t.Fatalf("dist[2] = %d, want 7", res.Dist[2])
	}
	if res.Reached(3) {
		t.Fatal("vertex 3 should be unreachable")
	}
}

// Property: async SSSP equals Dijkstra on arbitrary small weighted digraphs.
func TestQuickSSSPEquivalence(t *testing.T) {
	type rawEdge struct {
		S, D uint8
		W    uint16
	}
	f := func(raw []rawEdge) bool {
		const n = 64
		edges := make([]graph.Edge[uint32], len(raw))
		for i, e := range raw {
			edges[i] = graph.Edge[uint32]{
				Src: uint32(e.S) % n, Dst: uint32(e.D) % n, W: graph.Weight(e.W),
			}
		}
		g, err := graph.FromEdges(n, true, true, edges)
		if err != nil {
			return false
		}
		want, _, err := baseline.SerialDijkstra(g, 0)
		if err != nil {
			return false
		}
		got, err := SSSP[uint32](g, 0, Config{Workers: 7})
		if err != nil {
			return false
		}
		for v := range want {
			if got.Dist[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: async CC partitions equal union-find partitions with min-id
// labels on arbitrary undirected graphs.
func TestQuickCCEquivalence(t *testing.T) {
	type rawEdge struct{ S, D uint8 }
	f := func(raw []rawEdge) bool {
		const n = 64
		b := graph.NewBuilder[uint32](n, false)
		for _, e := range raw {
			b.AddEdge(uint32(e.S)%n, uint32(e.D)%n, 1)
		}
		b.Symmetrize()
		g, err := b.Build(true)
		if err != nil {
			return false
		}
		want, err := baseline.UnionFindCC(g, 3)
		if err != nil {
			return false
		}
		got, err := CC[uint32](g, Config{Workers: 5})
		if err != nil {
			return false
		}
		for v := range want {
			if got.ID[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS levels equal serial BFS on arbitrary digraphs, at varying
// worker counts and with semi-sort enabled.
func TestQuickBFSEquivalence(t *testing.T) {
	type rawEdge struct{ S, D uint8 }
	f := func(raw []rawEdge, semiSort bool) bool {
		const n = 64
		edges := make([]graph.Edge[uint32], len(raw))
		for i, e := range raw {
			edges[i] = graph.Edge[uint32]{Src: uint32(e.S) % n, Dst: uint32(e.D) % n}
		}
		g, err := graph.FromEdges(n, false, true, edges)
		if err != nil {
			return false
		}
		want, err := baseline.SerialBFS(g, 0)
		if err != nil {
			return false
		}
		got, err := BFS[uint32](g, 0, Config{Workers: 6, SemiSort: semiSort})
		if err != nil {
			return false
		}
		for v := range want {
			if got.Level[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
