package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// ownTranspose reports where g's structure (offsets and targets; weights are
// not part of reverse adjacency) first differs from its Transpose's.
func ownTranspose(t *testing.T, g *graph.CSR[uint32]) (diff string, same bool) {
	t.Helper()
	tr, err := graph.Transpose(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Offsets()) != len(g.Offsets()) || len(tr.Targets()) != len(g.Targets()) {
		return "sizes differ", false
	}
	for i, off := range g.Offsets() {
		if tr.Offsets()[i] != off {
			return "offsets differ", false
		}
	}
	for i, dst := range g.Targets() {
		if tr.Targets()[i] != dst {
			return "targets differ", false
		}
	}
	return "", true
}

// symmetrized is the builder path of `convert -symmetrize`: every edge of g
// re-added, Symmetrize, de-duplicated Build.
func symmetrized(t *testing.T, g *graph.CSR[uint32]) *graph.CSR[uint32] {
	t.Helper()
	b := graph.NewBuilder[uint32](g.NumVertices(), g.Weighted())
	g.ForEachEdge(func(u, v uint32, w graph.Weight) { b.AddEdge(u, v, w) })
	b.Symmetrize()
	out, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSymmetrizedBuildsAreTheirOwnTranspose is the property a symmetric mark
// on a CSR rests on: every graph that leaves a Builder through Symmetrize —
// the undirected generator families and convert's -symmetrize path over each
// directed family — is structurally identical to its Transpose, offsets and
// targets, and re-weighting one keeps it so; the directed families are not.
// Written against Transpose alone, so it holds with or without a mark.
func TestSymmetrizedBuildsAreTheirOwnTranspose(t *testing.T) {
	must := func(g *graph.CSR[uint32], err error) *graph.CSR[uint32] {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	directed := map[string]*graph.CSR[uint32]{
		"rmat-a": must(gen.RMAT[uint32](9, 8, gen.RMATA, 3)),
		"rmat-b": must(gen.RMAT[uint32](9, 8, gen.RMATB, 4)),
		"er":     must(gen.ErdosRenyi[uint32](300, 1500, 5)),
		"chain":  must(gen.Chain[uint32](257)),
		"grid":   must(gen.Grid[uint32](12, 17)),
	}
	symmetric := map[string]*graph.CSR[uint32]{
		"rmat-a undirected": must(gen.RMATUndirected[uint32](9, 8, gen.RMATA, 3)),
		"rmat-b undirected": must(gen.RMATUndirected[uint32](9, 8, gen.RMATB, 4)),
		"web":               must(gen.WebGraph[uint32](500, 4, 2, 6)),
	}
	for name, g := range directed {
		if _, same := ownTranspose(t, g); same {
			t.Errorf("%s: a directed family is its own transpose; the test would prove nothing", name)
		}
		symmetric[name+" symmetrized"] = symmetrized(t, g)
		symmetric[name+" weighted, symmetrized"] = symmetrized(t, must(gen.UniformWeights(g, 9)))
	}
	for name, g := range symmetric {
		if diff, same := ownTranspose(t, g); !same {
			t.Errorf("%s: not its own transpose: %s", name, diff)
		}
		for wname, reweight := range map[string]func(*graph.CSR[uint32], uint64) (*graph.CSR[uint32], error){
			"uw": gen.UniformWeights[uint32], "luw": gen.LogUniformWeights[uint32],
		} {
			if diff, same := ownTranspose(t, must(reweight(g, 11))); !same {
				t.Errorf("%s re-weighted %s: not its own transpose: %s", name, wname, diff)
			}
		}
	}
}

// TestSymmetricMark: only construction sets the mark. Build sets it straight
// after Symmetrize and not once an edge has been added since; WithWeights and
// Compress keep it; anything that rearranges edges (Transpose, ExtractShard,
// raw arrays) starts unmarked. A marked graph is an InAdjacency that answers
// with its own lists, which are its transpose's.
func TestSymmetricMark(t *testing.T) {
	edges := []graph.Edge[uint32]{{Src: 0, Dst: 1, W: 3}, {Src: 1, Dst: 2, W: 4}, {Src: 3, Dst: 1, W: 5}, {Src: 2, Dst: 2, W: 6}}
	build := func(after func(b *graph.Builder[uint32])) *graph.CSR[uint32] {
		b := graph.NewBuilder[uint32](5, true)
		b.AddEdges(edges)
		b.Symmetrize()
		after(b)
		g, err := b.Build(true)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := build(func(*graph.Builder[uint32]) {})
	if !g.Symmetric() {
		t.Fatal("Build straight after Symmetrize left the graph unmarked")
	}
	for name, later := range map[string]func(b *graph.Builder[uint32]){
		"AddEdge":  func(b *graph.Builder[uint32]) { b.AddEdge(4, 0, 1) },
		"AddEdges": func(b *graph.Builder[uint32]) { b.AddEdges(edges[:1]) },
	} {
		if build(later).Symmetric() {
			t.Errorf("%s after Symmetrize kept the mark", name)
		}
	}
	if !build(func(b *graph.Builder[uint32]) { b.AddEdge(4, 0, 1); b.Symmetrize() }).Symmetric() {
		t.Error("a second Symmetrize after AddEdge did not restore the mark")
	}
	directed, err := graph.FromEdges[uint32](5, true, true, edges)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.Transpose(g)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := graph.ExtractShard(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := graph.NewCSRRaw(g.Offsets(), g.Targets(), g.WeightsRaw())
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]*graph.CSR[uint32]{"FromEdges": directed, "Transpose": tr, "ExtractShard": shard, "NewCSRRaw": raw} {
		if _, ok := graph.InEdges[uint32](u); ok || u.Symmetric() || graph.InEdgeSource[uint32](u) != "none" {
			t.Errorf("%s output is marked symmetric or serves in-edges", name)
		}
	}
	unweighted, err := g.WithWeights(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WithWeights(make([]graph.Weight, 1)); err == nil {
		t.Error("WithWeights accepted a weight array of the wrong length")
	}
	for name, adj := range map[string]graph.Adjacency[uint32]{"Build": g, "WithWeights": unweighted, "Compress": c} {
		in, ok := graph.InEdges(adj)
		if !ok || graph.InEdgeSource(adj) != "symmetric" {
			t.Errorf("%s: capable=%v source=%q, want a symmetric in-edge source", name, ok, graph.InEdgeSource(adj))
			continue
		}
		for v := uint32(0); v < 5; v++ {
			got, err := in.InNeighbors(v, &graph.Scratch[uint32]{})
			want, _, _ := tr.Neighbors(v, nil)
			if err != nil || len(got) != len(want) || in.InDegree(v) != len(want) {
				t.Fatalf("%s: InNeighbors(%d) = %v, %v; the transpose says %v", name, v, got, err, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: InNeighbors(%d) = %v, the transpose says %v", name, v, got, want)
				}
			}
		}
	}
}
