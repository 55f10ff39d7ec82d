package sem

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func writeBytes(t *testing.T, g *graph.CSR[uint32], cfg WriteConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchmarkFilesDifferByTheFlagAlone writes the repo benchmark's graph
// family (undirected RMAT, uniform weights) under its three WriteConfigs,
// once from the CSR as generated — marked symmetric — and once from the same
// arrays without the mark, which is what a writer that knows nothing of the
// mark produces. The raw default ({}: sem-cached, serve-open) differs by the
// header's symmetric bit and nothing else; the explicit in-edge section
// (sem-pipeline) is byte-identical.
func TestBenchmarkFilesDifferByTheFlagAlone(t *testing.T) {
	g, err := gen.RMATUndirected[uint32](10, 8, gen.RMATA, 2010)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = gen.UniformWeights(g, 2010^0x5eed); err != nil {
		t.Fatal(err)
	}
	unmarked, err := graph.NewCSRRaw(g.Offsets(), g.Targets(), g.WeightsRaw())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Symmetric() || unmarked.Symmetric() {
		t.Fatalf("marks: generated=%v raw copy=%v, want true and false", g.Symmetric(), unmarked.Symmetric())
	}
	const name = "sem-cached/serve-open ({})"
	with, without := writeBytes(t, g, WriteConfig{}), writeBytes(t, unmarked, WriteConfig{})
	if len(with) != len(without) {
		t.Fatalf("%s: %d bytes marked, %d unmarked", name, len(with), len(without))
	}
	for i, want := range without {
		if i == 8 { // the low byte of the header's flag word
			if with[i] != want|flagSymmetric || want&flagSymmetric != 0 {
				t.Errorf("%s: flag byte %#x marked, %#x unmarked, want only the symmetric bit %#x apart", name, with[i], want, flagSymmetric)
			}
		} else if with[i] != want {
			t.Fatalf("%s: byte %d differs (%#x vs %#x): more than the header flag moved", name, i, with[i], want)
		}
	}
	pipeline := WriteConfig{Compress: true, InEdges: true}
	if !bytes.Equal(writeBytes(t, g, pipeline), writeBytes(t, unmarked, pipeline)) {
		t.Error("sem-pipeline: an explicit in-edge section is not byte-identical with and without the mark")
	}
}

// TestSymmetricMarkRoundTrip: a graph that left its builder through
// Symmetrize keeps its capability through every store — Write then LoadCSR
// (or LoadShardedCSR) gives a marked CSR, Write then Open a graph that serves
// in-edges — for {v1, v2} x {1, 3 shards}; a directed graph gains none; one
// member of a symmetric shard set is not itself symmetric; and the Symmetric
// assertion on an unmarked graph is refused instead of believed.
func TestSymmetricMarkRoundTrip(t *testing.T) {
	dg := buildGraph(t, 200, 1200, true, 31)
	ub := graph.NewBuilder[uint32](200, true)
	dg.ForEachEdge(ub.AddEdge)
	ub.Symmetrize()
	ug, err := ub.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		for _, shards := range []int{1, 3} {
			for _, in := range []struct {
				name string
				g    *graph.CSR[uint32]
			}{{"undirected", ug}, {"directed", dg}} {
				want := in.g.Symmetric()
				stores := make([]Store, shards)
				opened := make([]*Graph[uint32], shards)
				for k := range stores {
					cfg := WriteConfig{Compress: compress}
					if shards > 1 {
						cfg.Shard = &ShardConfig{Shard: k, Shards: shards}
					}
					stores[k] = bytes.NewReader(writeBytes(t, in.g, cfg))
					if opened[k], err = Open[uint32](stores[k]); err != nil {
						t.Fatal(err)
					}
					if opened[k].HasInEdges() != want || opened[k].Symmetric() != want {
						t.Errorf("compress=%v %s shard %d of %d: Open says inEdges=%v symmetric=%v, want %v", compress, in.name, k, shards, opened[k].HasInEdges(), opened[k].Symmetric(), want)
					}
				}
				loaded, err := LoadShardedCSR[uint32](stores)
				if err != nil {
					t.Fatal(err)
				}
				if loaded.Symmetric() != want || loaded.NumEdges() != in.g.NumEdges() {
					t.Errorf("compress=%v %s x%d: loaded CSR symmetric=%v with %d edges, want %v with %d", compress, in.name, shards, loaded.Symmetric(), loaded.NumEdges(), want, in.g.NumEdges())
				}
				router, err := MountShards(opened)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := graph.InEdges[uint32](router); ok != want {
					t.Errorf("compress=%v %s x%d: mounted capability %v, want %v", compress, in.name, shards, ok, want)
				}
				one, err := LoadCSR[uint32](stores[0])
				if err != nil {
					t.Fatal(err)
				}
				if one.Symmetric() != (want && shards == 1) {
					t.Errorf("compress=%v %s: LoadCSR of file 0 of %d symmetric=%v", compress, in.name, shards, one.Symmetric())
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, dg, WriteConfig{Symmetric: true}); err == nil || !strings.Contains(err.Error(), "not marked symmetric") {
		t.Errorf("Symmetric asserted of a directed graph: err = %v, want a refusal", err)
	}
}
