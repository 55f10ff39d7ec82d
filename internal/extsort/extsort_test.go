package extsort

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// buildBoth constructs the same graph through the in-memory builder and the
// out-of-core builder (with a tiny budget to force spills) and returns both
// serialized files.
func buildBoth(t testing.TB, n uint64, weighted bool, budget int, edges []graph.Edge[uint32]) (inMem, outOfCore []byte) {
	t.Helper()
	gb := graph.NewBuilder[uint32](n, weighted)
	gb.AddEdges(edges)
	g, err := gb.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		t.Fatal(err)
	}

	eb := NewBuilder(n, weighted, budget, t.TempDir())
	for _, e := range edges {
		if err := eb.Add(e.Src, e.Dst, e.W); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "out.asg"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := eb.WriteTo(f)
	if err != nil {
		t.Fatal(err)
	}
	if m != g.NumEdges() {
		t.Fatalf("edge count %d, want %d", m, g.NumEdges())
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), data
}

func randEdges(n uint64, m int, maxW uint64, seed uint64) []graph.Edge[uint32] {
	r := rand.New(rand.NewPCG(seed, 9))
	edges := make([]graph.Edge[uint32], m)
	for i := range edges {
		edges[i] = graph.Edge[uint32]{
			Src: uint32(r.Uint64N(n)), Dst: uint32(r.Uint64N(n)), W: graph.Weight(r.Uint64N(maxW)),
		}
	}
	return edges
}

func TestOutOfCoreMatchesInMemoryUnweighted(t *testing.T) {
	edges := randEdges(200, 5000, 1, 1)
	want, got := buildBoth(t, 200, false, 1024, edges) // ~5 spills
	if !bytes.Equal(want, got) {
		t.Fatal("out-of-core file differs from in-memory file")
	}
}

func TestOutOfCoreMatchesInMemoryWeighted(t *testing.T) {
	// Duplicate (src,dst) pairs with different weights across spill
	// boundaries exercise the min-weight dedup rule.
	edges := randEdges(50, 8000, 40, 2)
	want, got := buildBoth(t, 50, true, 1024, edges)
	if !bytes.Equal(want, got) {
		t.Fatal("out-of-core weighted file differs from in-memory file")
	}
}

func TestOutOfCoreNoSpill(t *testing.T) {
	edges := randEdges(64, 500, 10, 3)
	want, got := buildBoth(t, 64, true, 1<<20, edges)
	if !bytes.Equal(want, got) {
		t.Fatal("no-spill build differs")
	}
}

func TestOutOfCoreEmpty(t *testing.T) {
	want, got := buildBoth(t, 10, false, 2048, nil)
	if !bytes.Equal(want, got) {
		t.Fatal("out-of-core file of an edgeless graph differs from the in-memory file")
	}
	g, err := sem.LoadCSR[uint32](&ssd.MemBacking{Data: got})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 || g.NumEdges() != 0 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

// The last vertices having no out-edges leaves the tail of the index flat;
// the streamed index must still carry all n+1 entries.
func TestOutOfCoreZeroDegreeTail(t *testing.T) {
	edges := randEdges(8, 3000, 5, 5) // sources 0..7 of 300 vertices, spilling
	for i := range edges {
		edges[i].Dst += 100
	}
	want, got := buildBoth(t, 300, true, 1024, edges)
	if !bytes.Equal(want, got) {
		t.Fatal("out-of-core file with a zero-out-degree tail differs from the in-memory file")
	}
}

func TestBuilderValidation(t *testing.T) {
	eb := NewBuilder(4, false, 2048, t.TempDir())
	if err := eb.Add(9, 0, 1); err == nil {
		t.Fatal("out-of-range src accepted")
	}
	if err := eb.Add(0, 9, 1); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if err := eb.Add(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "x.asg"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := eb.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if _, err := eb.WriteTo(f); err == nil {
		t.Fatal("double WriteTo accepted")
	}
	if err := eb.Add(0, 1, 1); err == nil {
		t.Fatal("Add after WriteTo accepted")
	}
}

func TestSpillFilesCleanedUp(t *testing.T) {
	dir := t.TempDir()
	eb := NewBuilder(100, false, 1024, dir)
	for _, e := range randEdges(100, 5000, 1, 4) {
		if err := eb.Add(e.Src, e.Dst, e.W); err != nil {
			t.Fatal(err)
		}
	}
	outDir := t.TempDir()
	f, err := os.Create(filepath.Join(outDir, "g.asg"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := eb.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d spill files left behind", len(entries))
	}
}

// Property: the out-of-core builder produces byte-identical files to the
// in-memory path for arbitrary edge lists and spill budgets.
func TestQuickOutOfCoreEquivalence(t *testing.T) {
	type rawEdge struct {
		S, D uint8
		W    uint8
	}
	f := func(raw []rawEdge, weighted bool) bool {
		const n = 256
		edges := make([]graph.Edge[uint32], len(raw))
		for i, e := range raw {
			edges[i] = graph.Edge[uint32]{Src: uint32(e.S), Dst: uint32(e.D), W: graph.Weight(e.W)}
		}
		want, got := buildBoth(t, n, weighted, 1024, edges)
		return bytes.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfCoreUndirectedIsFlagged: a builder fed through AddUndirected alone
// writes the file sem.Write gives the same edges built through Symmetrize —
// header flag included, so the out-of-core route serves in-edges like the
// in-memory one — and one directed Add anywhere withdraws the flag.
func TestOutOfCoreUndirectedIsFlagged(t *testing.T) {
	edges := randEdges(120, 3000, 30, 4)
	gb := graph.NewBuilder[uint32](120, true)
	gb.AddEdges(edges)
	gb.Symmetrize()
	g, err := gb.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sem.Write(&want, g, sem.WriteConfig{Symmetric: true}); err != nil {
		t.Fatal(err)
	}
	for _, stray := range []bool{false, true} {
		eb := NewBuilder(120, true, 1024, t.TempDir())
		for _, e := range edges {
			if err := eb.AddUndirected(e.Src, e.Dst, e.W, e.W); err != nil {
				t.Fatal(err)
			}
		}
		if stray {
			if err := eb.Add(edges[0].Src, edges[0].Dst, edges[0].W); err != nil { // a duplicate: same edges, fed directed
				t.Fatal(err)
			}
		}
		f, err := os.Create(filepath.Join(t.TempDir(), "out.asg"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := eb.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		sg, err := sem.Open[uint32](bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want.Bytes()) == stray || sg.HasInEdges() == stray {
			t.Errorf("directed Add=%v: file equals the symmetrized in-memory build: %v, serves in-edges: %v", stray, bytes.Equal(got, want.Bytes()), sg.HasInEdges())
		}
	}
}
