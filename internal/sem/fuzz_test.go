package sem

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/ssd"
)

// FuzzOpen feeds arbitrary bytes through the semi-external loader: it must
// reject corrupt input with an error — never panic, never over-allocate —
// and anything it accepts must be fully traversable.
func FuzzOpen(f *testing.F) {
	// Seed with a valid file and a few mutations.
	b := graph.NewBuilder[uint32](20, true)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 19, 3)
	g, err := b.Build(false)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[16] = 0xFF // corrupt the vertex count
	f.Add(mutated)

	// Seed the compressed (v2) layout the same way so the fuzzer explores the
	// block-index and degree-array validation paths too.
	var cbuf bytes.Buffer
	if err := Write(&cbuf, g, WriteConfig{Compress: true}); err != nil {
		f.Fatal(err)
	}
	validV2 := cbuf.Bytes()
	f.Add(validV2)
	f.Add(validV2[:len(validV2)/2])
	mutatedV2 := append([]byte(nil), validV2...)
	mutatedV2[headerSize+8*21] = 0xFF // corrupt a degree-array byte
	f.Add(mutatedV2)

	// Seed the reverse path — in-edge sections in both formats, a symmetric
	// file, and a shard-map file (whose in-edge section is exempt from the
	// edge-count equality) — so the in-edge index sees mutations too.
	b = graph.NewBuilder[uint32](20, true)
	g.ForEachEdge(b.AddEdge)
	b.Symmetrize()
	ug, err := b.Build(false)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		g   *graph.CSR[uint32]
		cfg WriteConfig
	}{
		{g, WriteConfig{InEdges: true}},
		{g, WriteConfig{Compress: true, InEdges: true}},
		{ug, WriteConfig{Symmetric: true}},
		{g, WriteConfig{InEdges: true, Shard: &ShardConfig{Shard: 1, Shards: 2}}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, seed.g, seed.cfg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		store := &ssd.MemBacking{Data: data}
		sg, err := Open[uint32](store)
		if err != nil {
			return // rejected: fine
		}
		// Accepted: every adjacency must decode without panicking, and
		// targets must be in range or the read must error.
		scratch := &graph.Scratch[uint32]{}
		n := sg.NumVertices()
		if n > 1<<20 {
			t.Fatalf("accepted implausible vertex count %d for %d bytes", n, len(data))
		}
		for v := uint64(0); v < n; v++ {
			ts, ws, err := sg.Neighbors(uint32(v), scratch)
			if err != nil {
				continue
			}
			if sg.Weighted() != (ws != nil) && len(ts) > 0 {
				t.Fatal("weight slice inconsistent with header flag")
			}
			_ = ts
		}
		// The reverse path must hold up the same way: per vertex, and through
		// the bulk scan's coalesced spans.
		if !sg.HasInEdges() {
			return
		}
		for v := uint64(0); v < n; v++ {
			in, err := sg.InNeighbors(uint32(v), scratch)
			if err == nil && len(in) != sg.InDegree(uint32(v)) {
				t.Fatalf("InNeighbors(%d) returned %d sources, InDegree says %d", v, len(in), sg.InDegree(uint32(v)))
			}
		}
		all := func(uint32) bool { return true }
		visit := func(v uint32, in []uint32) error {
			if len(in) != sg.InDegree(v) {
				t.Fatalf("scan handed %d sources to %d, InDegree says %d", len(in), v, sg.InDegree(v))
			}
			return nil
		}
		_ = sg.ScanInEdges(0, uint32(n), all, visit, scratch) // a decode error on corrupt blocks is fine
	})
}
