package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
)

// semStore serializes g per cfg and reopens it the way a mount would: behind
// a half-file block cache, or on the raw store with the prefetcher attached.
func semStore(t *testing.T, g *graph.CSR[uint32], cfg sem.WriteConfig, cached bool) *sem.Graph[uint32] {
	t.Helper()
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, cfg); err != nil {
		t.Fatal(err)
	}
	var store sem.Store = bytes.NewReader(buf.Bytes())
	if cached {
		c, err := sem.NewCachedStoreRA(bytes.NewReader(buf.Bytes()), 4096, int64(buf.Len())/2, 8)
		if err != nil {
			t.Fatal(err)
		}
		store = c
	}
	sg, err := sem.Open[uint32](store)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		sg.EnablePrefetch(sem.PrefetchConfig{MaxGap: sem.DefaultPrefetchGap})
	}
	return sg
}

// TestBFSChoosesDriver is the selection rule, row by row: where a graph's
// in-edges come from x where its edges live (in memory, behind a cache, on
// the raw device under the pop window its mount sets) x how dense it is. A BFS under
// the zero Direction must run the direction-switching driver exactly where
// the rule says (phases recorded or not), say so through BFSDriver, and
// compute the serial baseline's levels on every row; through an EnginePool it
// must choose the same way.
func TestBFSChoosesDriver(t *testing.T) {
	must := func(g *graph.CSR[uint32], err error) *graph.CSR[uint32] {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	symmetrized := func(g *graph.CSR[uint32]) *graph.CSR[uint32] {
		b := graph.NewBuilder[uint32](g.NumVertices(), false)
		g.ForEachEdge(b.AddEdge)
		b.Symmetrize()
		return must(b.Build(true))
	}
	// Dense: ~14 edges a vertex directed, ~28 symmetrized. Sparse: a grid, 2
	// directed and 4 symmetrized — under cachedDensity either way.
	dense := must(gen.RMAT[uint32](8, 16, gen.RMATA, 5))
	sparse := must(gen.Grid[uint32](16, 16))
	for _, shape := range []struct {
		name   string
		g      *graph.CSR[uint32]
		sparse bool
	}{{"dense", dense, false}, {"sparse", sparse, true}} {
		if got := float64(shape.g.NumEdges()) / float64(shape.g.NumVertices()); (got < cachedDensity) != shape.sparse {
			t.Fatalf("%s graph has %.1f edges a vertex; the table's two sides need one under and one over %d", shape.name, got, cachedDensity)
		}
		g, ug := shape.g, symmetrized(shape.g)
		section, plain := sem.WriteConfig{InEdges: true}, sem.WriteConfig{}
		cached := !shape.sparse // a capable graph behind a cache takes the driver only when dense
		const window = 16       // what a raw-device mount sets Config.Prefetch to
		rows := []struct {
			name   string
			adj    graph.Adjacency[uint32]
			base   *graph.CSR[uint32]
			window int
			source string
			driver bool
		}{
			{"no in-edges/in memory", g, g, 0, "none", false},
			{"no in-edges/cached", semStore(t, g, plain, true), g, 0, "none", false},
			{"no in-edges/raw", semStore(t, g, plain, false), g, window, "none", false},
			{"symmetric mark/in memory", ug, ug, 0, "symmetric", true},
			{"symmetric mark/in memory, compressed", compressed(t, ug), ug, 0, "symmetric", true},
			{"symmetric mark/cached", semStore(t, ug, plain, true), ug, 0, "symmetric", cached},
			{"symmetric mark/raw", semStore(t, ug, plain, false), ug, window, "symmetric", true},
			{"symmetric mark/3 shards, unwindowed", semShardedMirror(t, ug, 3, plain), ug, 0, "symmetric", cached},
			{"in-edge section/cached", semStore(t, g, section, true), g, 0, "section", cached},
			{"in-edge section/raw", semStore(t, g, section, false), g, window, "section", true},
			{"Bidi/in memory", bidiIM(t, g), g, 0, "section", true},
			{"Bidi/in memory, compressed", bidiCompressed(t, g), g, 0, "section", true},
		}
		for _, row := range rows {
			t.Run(shape.name+"/"+row.name, func(t *testing.T) {
				if got := graph.InEdgeSource(row.adj); got != row.source {
					t.Errorf("in-edge source %q, want %q", got, row.source)
				}
				wantName := map[bool]string{true: "direction-switching", false: "asynchronous"}[row.driver]
				cfg := Config{Workers: 4, Prefetch: row.window}
				if got := BFSDriver(row.adj, cfg); got != wantName {
					t.Errorf("BFSDriver = %q, want %q", got, wantName)
				}
				want, err := baseline.SerialBFS[uint32](row.base, 0)
				if err != nil {
					t.Fatal(err)
				}
				pool := NewEnginePool[uint32](cfg)
				direct, err := BFS[uint32](row.adj, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pooled, err := pool.BFS(context.Background(), row.adj, 0)
				if err != nil {
					t.Fatal(err)
				}
				for how, res := range map[string]*BFSResult[uint32]{"BFS": direct, "EnginePool.BFS": pooled} {
					if phases := res.Stats.TopDownPhases + res.Stats.BottomUpPhases; (phases > 0) != row.driver {
						t.Errorf("%s ran %d phases, want driver=%v", how, phases, row.driver)
					}
					if row.driver && res.Stats.Imbalance() == 0 {
						t.Errorf("%s on the driver reports no per-worker visits: %+v", how, res.Stats)
					}
					for v := range want {
						if res.Level[v] != want[v] {
							t.Fatalf("%s: level[%d] = %d, want %d", how, v, res.Level[v], want[v])
						}
					}
				}
				if _, acquired := pool.Reuses(); (acquired == 0) != row.driver {
					t.Errorf("pool acquisitions = %d with driver=%v: the driver takes nothing from the pool, the kernel one set", acquired, row.driver)
				}
			})
		}
	}
}

// compressed compresses g, keeping its symmetric mark.
func compressed(t *testing.T, g *graph.CSR[uint32]) *graph.CompressedCSR[uint32] {
	t.Helper()
	c, err := graph.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
