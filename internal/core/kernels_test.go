package core

import (
	"bytes"
	"fmt"
	"strings"
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

// checkTreeEdges asserts that parent describes a tree of tight edges of g:
// the source is its own parent, an unreached vertex has none, and every other
// reached v hangs off an existing edge parent[v] -> v whose weight (1 when
// unweighted) closes label[parent[v]] + w == label[v].
func checkTreeEdges(t *testing.T, g *graph.CSR[uint32], src uint32, labels []graph.Dist, parent []uint32, unweighted bool) {
	t.Helper()
	no := graph.NoVertex[uint32]()
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		p := parent[v]
		switch {
		case v == src:
			if p != src {
				t.Fatalf("parent[src] = %d, want the source itself", p)
			}
			continue
		case labels[v] == graph.InfDist:
			if p != no {
				t.Fatalf("unreached vertex %d has parent %d", v, p)
			}
			continue
		case p == no || labels[p] == graph.InfDist:
			t.Fatalf("reached vertex %d has parent %d, which is not a reached vertex", v, p)
		}
		targets, weights, _ := g.Neighbors(p, nil)
		tight := false
		for i, u := range targets {
			w := graph.Dist(1)
			if !unweighted && weights != nil {
				w = graph.Dist(weights[i])
			}
			if u == v && labels[p]+w == labels[v] {
				tight = true
				break
			}
		}
		if !tight {
			t.Fatalf("parent[%d] = %d is not a tree edge: label %d -> %d over no edge of that weight", v, p, labels[p], labels[v])
		}
	}
}

// TestParentsAreTreeEdges pins what the proposal filter must not change. It
// narrows which of several racing proposals for a vertex gets queued, so
// which tie wins a parent differs from run to run; whichever does, the
// recorded parent must be a tree edge, on both back ends, with several
// workers.
func TestParentsAreTreeEdges(t *testing.T) {
	dg := randomDigraph(t, 400, 3200, true, 17)
	const src = 5
	for _, be := range []struct {
		name string
		g    graph.Adjacency[uint32]
	}{{"IM", dg}, {"SEM", semMirror(t, dg)}} {
		t.Run(be.name, func(t *testing.T) {
			for rep := 0; rep < 5; rep++ {
				cfg := Config{Workers: 8, SemiSort: rep%2 == 1}
				bfs, err := BFS[uint32](be.g, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkTreeEdges(t, dg, src, bfs.Level, bfs.Parent, true)
				sssp, err := SSSP[uint32](be.g, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkTreeEdges(t, dg, src, sssp.Dist, sssp.Parent, false)
			}
		})
	}
}

// TestPrunedAccounting checks Stats.Pruned against what it is defined by, on
// a multi-worker run: every queued visitor of a completed traversal is
// visited (Visits = Pushes + the one external seed), and every relaxation of
// a reached vertex sends each out-edge to exactly one of Pushes and Pruned —
// at least once per reached vertex, more when a label was corrected.
func TestPrunedAccounting(t *testing.T) {
	dg := randomDigraph(t, 400, 3200, true, 17)
	res, err := SSSP[uint32](dg, 5, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Visits != st.Pushes+1 {
		t.Errorf("visits %d, want pushes %d + 1 seed", st.Visits, st.Pushes)
	}
	var outEdges uint64
	for v, d := range res.Dist {
		if d != graph.InfDist {
			outEdges += uint64(dg.Degree(uint32(v)))
		}
	}
	if st.Pruned == 0 || st.Pushes+st.Pruned < outEdges {
		t.Errorf("pushes %d + pruned %d, want at least the reached vertices' %d out-edges and some pruned", st.Pushes, st.Pruned, outEdges)
	}
	if want := "pruned="; !strings.Contains(st.String(), want) {
		t.Errorf("Stats.String() = %q, want it to carry %q", st.String(), want)
	}
}

// readCounter counts adjacency reads per vertex. With one worker the counts
// have a single writer.
type readCounter struct {
	*graph.CSR[uint32]
	reads []int
}

func (c *readCounter) Neighbors(v uint32, s *graph.Scratch[uint32]) ([]uint32, []graph.Weight, error) {
	c.reads[v]++
	return c.CSR.Neighbors(v, s)
}

// TestOvertakenVisitorIsDropped pins what a visit does with a visitor whose
// claim was beaten while it was in flight. A one-worker SSSP from 0 over
//
//	0 -10-> 1 -1-> 3        0 -1-> 2 -1-> 1
//
// queues 1 at 10 and 2 at 1. Visiting 2 claims 1 at 2, and that visitor sits
// in the outbox while the queued one at 10 pops. The one at 10 arrives above
// vertex 1's word, so it is dropped: 1's adjacency is read once, and no
// proposal for 3 at 11 is ever pushed.
func TestOvertakenVisitorIsDropped(t *testing.T) {
	b := graph.NewBuilder[uint32](4, true)
	b.AddEdge(0, 1, 10)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 1, 1)
	b.AddEdge(1, 3, 1)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	adj := &readCounter{CSR: g, reads: make([]int, 4)}
	res, err := SSSP[uint32](adj, 0, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adj.reads[1] != 1 {
		t.Errorf("vertex 1's adjacency read %d times, want once", adj.reads[1])
	}
	if res.Stats.Pushes != 4 {
		t.Errorf("pushes = %d, want 4 (1@10, 2@1, 1@2, 3@3)", res.Stats.Pushes)
	}
	for v, want := range []graph.Dist{0, 2, 1, 3} {
		if res.Dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, res.Dist[v], want)
		}
	}
	if res.Parent[1] != 2 || res.Parent[3] != 1 {
		t.Errorf("parents %v, want 1 under 2 and 3 under 1", res.Parent)
	}
}
