package bsp

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
)

var rankSweep = []int{1, 2, 3, 8}

func TestClusterValidation(t *testing.T) {
	g, _ := graph.FromEdges[uint32](2, false, false, nil)
	if _, err := NewCluster(g, 0); err == nil {
		t.Fatal("0 ranks accepted")
	}
	c, err := NewCluster(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.ranks != 4 {
		t.Fatalf("ranks = %d", c.ranks)
	}
	if _, _, err := c.BFS(9); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestBSPBFSMatchesSerial(t *testing.T) {
	g, err := gen.RMAT[uint32](9, 8, gen.RMATA, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Start from a vertex with out-edges so the traversal reaches beyond
	// the source (the paper's runs start in the giant component).
	src := uint32(0)
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(src) {
			src = v
		}
	}
	want, err := baseline.SerialBFS(g, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range rankSweep {
		c, err := NewCluster(g, ranks)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := c.BFS(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("ranks=%d: level[%d] = %d, want %d", ranks, v, got[v], want[v])
			}
		}
		if stats.Supersteps == 0 || stats.Messages == 0 {
			t.Fatalf("ranks=%d: stats = %+v", ranks, stats)
		}
	}
}

func TestBSPBFSSuperstepsEqualLevels(t *testing.T) {
	// A level-synchronous BFS needs exactly one superstep per BFS level
	// reached — that coupling is the synchronization cost the async engine
	// removes.
	g, err := gen.Chain[uint32](50)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewCluster(g, 4)
	levels, stats, err := c.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if levels[49] != 49 {
		t.Fatalf("level[49] = %d", levels[49])
	}
	if stats.Supersteps != 50 {
		t.Fatalf("supersteps = %d, want 50 (one per level)", stats.Supersteps)
	}
}

func TestBSPCCMatchesSerial(t *testing.T) {
	g, err := gen.RMATUndirected[uint32](9, 4, gen.RMATB, 22)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.SerialCC(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range rankSweep {
		c, err := NewCluster(g, ranks)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := c.CC()
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("ranks=%d: id[%d] = %d, want %d", ranks, v, got[v], want[v])
			}
		}
		if ranks > 1 && stats.MaxImbalance() < 1.0 {
			t.Fatalf("ranks=%d: imbalance = %v", ranks, stats.Imbalance)
		}
	}
}

func TestBSPCCDisconnected(t *testing.T) {
	b := graph.NewBuilder[uint32](6, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(4, 5, 1)
	b.Symmetrize()
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewCluster(g, 3)
	got, _, err := c.CC()
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 0, 2, 3, 4, 4}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("id[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBSPEmptyGraph(t *testing.T) {
	g, _ := graph.FromEdges[uint32](0, false, false, nil)
	c, _ := NewCluster(g, 2)
	ids, stats, err := c.CC()
	if err != nil || len(ids) != 0 {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
	if stats.Supersteps != 0 {
		t.Fatalf("supersteps = %d", stats.Supersteps)
	}
}

func TestBSPImbalanceOnSkewedGraph(t *testing.T) {
	// A star graph concentrates all messages at the hub's owner: the load
	// imbalance the paper attributes to power-law graphs on DM systems.
	const n = 1024
	b := graph.NewBuilder[uint32](n, false)
	for v := uint32(1); v < n; v++ {
		b.AddEdge(0, v, 1)
	}
	b.Symmetrize()
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewCluster(g, 8)
	_, stats, err := c.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxImbalance() < 4.0 {
		t.Fatalf("hub imbalance = %f, want heavily imbalanced (>4x mean)", stats.MaxImbalance())
	}
}
