package core

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// TestPrefetchConfigFallsBackOnIMGraphs pins the Prefetch:0 compatibility
// contract from the other side: asking for a pop sweep on a back end without
// BatchAdjacency (the in-memory CSR) must not change results, and neither may
// a sweep on a SEM graph whose prefetcher was never enabled (Request reads
// each extent alone there).
func TestPrefetchConfigFallsBackOnIMGraphs(t *testing.T) {
	g := randomDigraph(t, 300, 2400, true, 19)
	wantLevel, err := baseline.SerialBFS[uint32](g, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDist, _, err := baseline.SerialDijkstra[uint32](g, 0)
	if err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		run  func(cfg Config) (levels, dists []graph.Dist, err error)
	}{
		{"IM", func(cfg Config) ([]graph.Dist, []graph.Dist, error) {
			b, err := BFS[uint32](g, 0, cfg)
			if err != nil {
				return nil, nil, err
			}
			s, err := SSSP[uint32](g, 0, cfg)
			if err != nil {
				return nil, nil, err
			}
			return b.Level, s.Dist, nil
		}},
		{"SEM-noprefetcher", func(cfg Config) ([]graph.Dist, []graph.Dist, error) {
			sg := semMirror(t, g)
			b, err := BFS[uint32](sg, 0, cfg)
			if err != nil {
				return nil, nil, err
			}
			s, err := SSSP[uint32](sg, 0, cfg)
			if err != nil {
				return nil, nil, err
			}
			return b.Level, s.Dist, nil
		}},
	}
	for _, be := range backends {
		for _, prefetch := range []int{-4, 1, 16} {
			levels, dists, err := be.run(Config{Workers: 8, SemiSort: true, Prefetch: prefetch})
			if err != nil {
				t.Fatalf("%s prefetch=%d: %v", be.name, prefetch, err)
			}
			for v := range wantLevel {
				if levels[v] != wantLevel[v] {
					t.Fatalf("%s prefetch=%d: level[%d] = %d, want %d",
						be.name, prefetch, v, levels[v], wantLevel[v])
				}
			}
			for v := range wantDist {
				if dists[v] != wantDist[v] {
					t.Fatalf("%s prefetch=%d: dist[%d] = %d, want %d",
						be.name, prefetch, v, dists[v], wantDist[v])
				}
			}
		}
	}
}
