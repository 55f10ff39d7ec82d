package sem

import (
	"bytes"
	"encoding/binary"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

// openWith serializes g per cfg and reopens it over an in-memory store.
func openWith(t testing.TB, g *graph.CSR[uint32], cfg WriteConfig) *Graph[uint32] {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, cfg); err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// TestInEdgeSectionRoundTrip checks that InDegree/InNeighbors served from
// the on-flash in-edge section (v1 and v2) match the in-memory transpose
// edge-for-edge, and that stores written without the section decline the
// capability.
func TestInEdgeSectionRoundTrip(t *testing.T) {
	g := buildGraph(t, 200, 1200, true, 21) // weighted: in-section must not inherit weights
	rev, err := graph.Transpose(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  WriteConfig
	}{
		{"v1", WriteConfig{InEdges: true}},
		{"v2", WriteConfig{Compress: true, InEdges: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sg := openWith(t, g, tc.cfg)
			if !sg.HasInEdges() {
				t.Fatal("store with in-edge section reports HasInEdges=false")
			}
			if _, ok := graph.InEdges[uint32](sg); !ok {
				t.Fatal("graph.InEdges declined a store with an in-edge section")
			}
			scratch := &graph.Scratch[uint32]{}
			revScratch := &graph.Scratch[uint32]{}
			for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
				if got, want := sg.InDegree(v), rev.Degree(v); got != want {
					t.Fatalf("InDegree(%d) = %d, want %d", v, got, want)
				}
				got, err := sg.InNeighbors(v, scratch)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := rev.Neighbors(v, revScratch)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("InNeighbors(%d): %d sources, want %d", v, len(got), len(want))
				}
				gs, ws := append([]uint32(nil), got...), append([]uint32(nil), want...)
				sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
				sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
				for i := range gs {
					if gs[i] != ws[i] {
						t.Fatalf("InNeighbors(%d)[%d] = %d, want %d", v, i, gs[i], ws[i])
					}
				}
			}
		})
	}

	plain := openWith(t, g, WriteConfig{})
	if plain.HasInEdges() {
		t.Fatal("plain store reports HasInEdges=true")
	}
	if _, ok := graph.InEdges[uint32](plain); ok {
		t.Fatal("graph.InEdges accepted a store without reverse capability")
	}
}

// TestScanInEdgesMatchesPerVertex checks the bulk scan against per-vertex
// InNeighbors for every back-end shape — v1/v2 sections, symmetric files,
// with and without a prefetcher (the double-buffered async span path) — and
// that need() filtering and the scan counters behave.
func TestScanInEdgesMatchesPerVertex(t *testing.T) {
	dg := buildGraph(t, 300, 2400, false, 22)
	ub := graph.NewBuilder[uint32](300, false)
	dg.ForEachEdge(func(u, v uint32, w graph.Weight) { ub.AddEdge(u, v, w) })
	ub.Symmetrize()
	ug, err := ub.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		g        *graph.CSR[uint32]
		cfg      WriteConfig
		prefetch bool
	}{
		{"v1", dg, WriteConfig{InEdges: true}, false},
		{"v1-prefetch", dg, WriteConfig{InEdges: true}, true},
		{"v2", dg, WriteConfig{Compress: true, InEdges: true}, false},
		{"v2-prefetch", dg, WriteConfig{Compress: true, InEdges: true}, true},
		{"symmetric-v1", ug, WriteConfig{Symmetric: true}, false},
		{"symmetric-v2-prefetch", ug, WriteConfig{Compress: true, Symmetric: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sg := openWith(t, tc.g, tc.cfg)
			if tc.prefetch {
				sg.EnablePrefetch(PrefetchConfig{MaxGap: 4096})
			}
			need := func(v uint32) bool { return v%3 != 0 } // skip a third: filtering must hold
			got := map[uint32][]uint32{}
			err := sg.ScanInEdges(0, uint32(sg.NumVertices()), need, func(v uint32, in []uint32) error {
				got[v] = append([]uint32(nil), in...)
				return nil
			}, &graph.Scratch[uint32]{})
			if err != nil {
				t.Fatal(err)
			}
			scratch := &graph.Scratch[uint32]{}
			for v := uint32(0); uint64(v) < sg.NumVertices(); v++ {
				want, err := sg.InNeighbors(v, scratch)
				if err != nil {
					t.Fatal(err)
				}
				if !need(v) || len(want) == 0 {
					if _, ok := got[v]; ok {
						t.Fatalf("scan visited %d (need=%v, indeg=%d)", v, need(v), len(want))
					}
					continue
				}
				g2 := got[v]
				if len(g2) != len(want) {
					t.Fatalf("scan in-list of %d has %d sources, want %d", v, len(g2), len(want))
				}
				for i := range g2 {
					if g2[i] != want[i] {
						t.Fatalf("scan in-list of %d differs at %d: %d vs %d", v, i, g2[i], want[i])
					}
				}
			}
			st := sg.PrefetchStats()
			if tc.prefetch && st.ScanSpans == 0 {
				t.Fatal("prefetch-enabled scan issued no counted spans")
			}
			if tc.prefetch && st.ScanBytes == 0 {
				t.Fatal("prefetch-enabled scan counted no bytes")
			}
			if !tc.prefetch && st.ScanSpans != 0 {
				t.Fatal("scan counters moved without a prefetcher attached")
			}
		})
	}
}

// TestWriteRejectsInEdgesWithSymmetric pins the writer-side exclusivity.
func TestWriteRejectsInEdgesWithSymmetric(t *testing.T) {
	g := buildGraph(t, 20, 40, false, 23)
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{InEdges: true, Symmetric: true}); err == nil {
		t.Fatal("Write accepted InEdges+Symmetric")
	}
}

// TestOpenRejectsTruncatedInSection checks that a store whose in-edge section
// does not fit — cut off inside it, or indexed past the end of the store —
// fails at open, naming the section, not at the first bottom-up read.
func TestOpenRejectsTruncatedInSection(t *testing.T) {
	g := buildGraph(t, 50, 300, false, 24)
	write := func(g *graph.CSR[uint32], cfg WriteConfig) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, g, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v1, v2 := write(g, WriteConfig{InEdges: true}), write(g, WriteConfig{Compress: true, InEdges: true})

	// The fuzz-found crasher (testdata/fuzz/FuzzOpen/unbounded-in-edge-index-416):
	// a 20-vertex, 2-edge shard file whose last two in-offsets claim ~2^62
	// records. Shards skip the in-edges == m equality, and the old size check
	// multiplied the count by the record size and wrapped negative, so Open
	// accepted it and InNeighbors(18) asked for an 827 GB buffer.
	b := graph.NewBuilder[uint32](20, false)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 19, 0)
	small, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	crasher := write(small, WriteConfig{InEdges: true, Shard: &ShardConfig{Shards: 1}})
	inIndex := headerSize + shardMapSize + 21*8 + 2*4
	binary.LittleEndian.PutUint64(crasher[inIndex+19*8:], 0x3030303030)
	binary.LittleEndian.PutUint64(crasher[inIndex+20*8:], 0x3030303030303030)

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v1 cut", v1[:len(v1)-8]},
		{"v2 cut", v2[:len(v2)-8]},
		{"sharded v1 index past the store", crasher},
	} {
		_, err := Open[uint32](bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s: opened a store whose in-edge section does not fit", tc.name)
		}
		if !strings.Contains(err.Error(), "in-edge") {
			t.Fatalf("%s: error does not name the section: %v", tc.name, err)
		}
	}
}
