package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
)

// semMirror serializes g into the semi-external format and reopens it with
// the edge records behind a ReaderAt store, so traversals exercise the SEM
// Neighbors path (per-visit positional reads into worker scratch).
func semMirror(t testing.TB, g *graph.CSR[uint32]) *sem.Graph[uint32] {
	t.Helper()
	var buf bytes.Buffer
	if err := sem.Write(&buf, g, sem.WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	sg, err := sem.Open[uint32](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// TestKernelIMAndSEMMatchSerialBaselines is the algorithm-layer contract:
// BFS, SSSP, and CC run through the one relaxation kernel against both the
// in-memory CSR and the semi-external store, and all six combinations must
// match the serial baselines label-for-label.
func TestKernelIMAndSEMMatchSerialBaselines(t *testing.T) {
	dg := randomDigraph(t, 300, 1500, true, 11) // weighted digraph: BFS + SSSP
	ug := randomUndirected(t, 300, 900, 12)     // symmetric: CC

	wantLevel, err := baseline.SerialBFS[uint32](dg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDist, _, err := baseline.SerialDijkstra[uint32](dg, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := baseline.SerialCC[uint32](ug)
	if err != nil {
		t.Fatal(err)
	}

	backends := []struct {
		name     string
		directed graph.Adjacency[uint32]
		undirect graph.Adjacency[uint32]
	}{
		{"IM", dg, ug},
		{"SEM", semMirror(t, dg), semMirror(t, ug)},
	}
	for _, be := range backends {
		for _, cfg := range []Config{
			{Workers: 8},
			{Workers: 8, SemiSort: true},
		} {
			name := fmt.Sprintf("%s/semisort=%v", be.name, cfg.SemiSort)
			t.Run(name, func(t *testing.T) {
				bfs, err := BFS[uint32](be.directed, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantLevel {
					if bfs.Level[v] != wantLevel[v] {
						t.Fatalf("BFS level[%d] = %d, want %d", v, bfs.Level[v], wantLevel[v])
					}
				}
				sssp, err := SSSP[uint32](be.directed, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantDist {
					if sssp.Dist[v] != wantDist[v] {
						t.Fatalf("SSSP dist[%d] = %d, want %d", v, sssp.Dist[v], wantDist[v])
					}
				}
				cc, err := CC[uint32](be.undirect, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantID {
					if cc.ID[v] != wantID[v] {
						t.Fatalf("CC id[%d] = %d, want %d", v, cc.ID[v], wantID[v])
					}
				}
			})
		}
	}
}

// TestCrossQueueEquivalence is the cross-queue property test: on random RMAT
// and Erdős–Rényi graphs, BFS labels must be identical with the semi-sort
// key on or off, and across the raw and compressed adjacency back ends. The label-correcting kernel guarantees the final labels are
// independent of visit order, and the compressed CSR must present exactly the
// raw graph's adjacency.
func TestCrossQueueEquivalence(t *testing.T) {
	type workload struct {
		name string
		g    graph.Adjacency[uint32]
	}
	var workloads []workload
	for seed := uint64(1); seed <= 3; seed++ {
		rm, err := gen.RMAT[uint32](8, 8, gen.RMATA, seed)
		if err != nil {
			t.Fatal(err)
		}
		crm, err := graph.Compress(rm)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads,
			workload{fmt.Sprintf("rmat-%d", seed), rm},
			workload{fmt.Sprintf("rmat-%d-compressed", seed), crm})
		er, err := gen.ErdosRenyi[uint32](300, 1800, seed)
		if err != nil {
			t.Fatal(err)
		}
		cer, err := graph.Compress(er)
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads,
			workload{fmt.Sprintf("er-%d", seed), er},
			workload{fmt.Sprintf("er-%d-compressed", seed), cer})
	}
	variants := []struct {
		name string
		cfg  Config
	}{
		{"heap", Config{Workers: 6}},
		{"heap-semisort", Config{Workers: 6, SemiSort: true}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			src := uint32(0)
			want, err := baseline.SerialBFS[uint32](w.g, src)
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range variants {
				res, err := BFS[uint32](w.g, src, variant.cfg)
				if err != nil {
					t.Fatalf("%s: %v", variant.name, err)
				}
				for v := range want {
					if res.Level[v] != want[v] {
						t.Fatalf("%s: level[%d] = %d, want %d",
							variant.name, v, res.Level[v], want[v])
					}
				}
			}
		})
	}
}
