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
