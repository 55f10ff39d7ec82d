package sem

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ssd"
)

func writeCompressedToMem[V graph.Vertex](t testing.TB, g *graph.CSR[V]) *ssd.MemBacking {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{Compress: true}); err != nil {
		t.Fatal(err)
	}
	return &ssd.MemBacking{Data: buf.Bytes()}
}

// sameAdjacency fails unless both graphs expose identical adjacency (order
// and weights) for every vertex.
func sameAdjacency(t *testing.T, want, got graph.Adjacency[uint32]) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() {
		t.Fatalf("vertex count %d != %d", got.NumVertices(), want.NumVertices())
	}
	scratch := &graph.Scratch[uint32]{}
	for v := uint32(0); uint64(v) < want.NumVertices(); v++ {
		wt, ww, err := want.Neighbors(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		gt, gw, err := got.Neighbors(v, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(wt) != len(gt) {
			t.Fatalf("vertex %d: degree %d != %d", v, len(gt), len(wt))
		}
		for i := range wt {
			if wt[i] != gt[i] {
				t.Fatalf("vertex %d edge %d: target %d != %d", v, i, gt[i], wt[i])
			}
			if ww != nil && ww[i] != gw[i] {
				t.Fatalf("vertex %d edge %d: weight %d != %d", v, i, gw[i], ww[i])
			}
		}
	}
}

func TestCompressedRoundTripUnweighted(t *testing.T) {
	g := buildGraph(t, 200, 1500, false, 3)
	back := writeCompressedToMem(t, g)
	sg, err := Open[uint32](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	if !sg.Compressed() {
		t.Fatal("v2 store not reported compressed")
	}
	if sg.NumEdges() != g.NumEdges() || sg.Weighted() {
		t.Fatalf("header mismatch: m=%d weighted=%v", sg.NumEdges(), sg.Weighted())
	}
	sameAdjacency(t, g, sg)
}

func TestCompressedRoundTripWeighted(t *testing.T) {
	g := buildGraph(t, 150, 1200, true, 4)
	back := writeCompressedToMem(t, g)
	sg, err := Open[uint32](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	sameAdjacency(t, g, sg)

	// Degrees must come from the RAM-resident degree array, no decode.
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		if sg.Degree(v) != g.Degree(v) {
			t.Fatalf("vertex %d: degree %d != %d", v, sg.Degree(v), g.Degree(v))
		}
	}
}

func TestCompressedLoadCSR(t *testing.T) {
	g := buildGraph(t, 300, 2500, true, 5)
	back := writeCompressedToMem(t, g)
	got, err := LoadCSR[uint32](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	sameAdjacency(t, g, got)
}

// The v2 edge region must be meaningfully smaller than v1 on an RMAT graph —
// the entire point of the format.
func TestCompressedEdgeBytesShrink(t *testing.T) {
	g, err := gen.RMAT[uint32](10, 8, gen.RMATB, 42)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Open[uint32](fastDevice(writeCompressedToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if comp.EdgeBytes()*2 > raw.EdgeBytes() {
		t.Fatalf("compressed edge region %d bytes, raw %d: less than 2x shrink", comp.EdgeBytes(), raw.EdgeBytes())
	}
}

// BFS over a compressed store, with and without the prefetch pipeline, must
// match the in-memory traversal.
func TestCompressedSEMBFSMatchesInMemory(t *testing.T) {
	g, err := gen.RMAT[uint32](9, 8, gen.RMATA, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BFS[uint32](g, 0, core.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{0, 16} {
		back := writeCompressedToMem(t, g)
		sg, err := Open[uint32](fastDevice(back))
		if err != nil {
			t.Fatal(err)
		}
		if window > 1 {
			sg.EnablePrefetch(PrefetchConfig{MaxGap: DefaultPrefetchGap})
		}
		got, err := core.BFS[uint32](sg, 0, core.Config{Workers: 8, SemiSort: true, Prefetch: window})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Level {
			if want.Level[v] != got.Level[v] {
				t.Fatalf("window %d: level[%d] = %d, want %d", window, v, got.Level[v], want.Level[v])
			}
		}
	}
}

// SSSP exercises the weight stream through the prefetch zero-copy handoff.
func TestCompressedSEMSSSPMatchesRaw(t *testing.T) {
	g, err := gen.RMAT[uint32](9, 8, gen.RMATA, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err = gen.UniformWeights(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SSSP[uint32](g, 0, core.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	back := writeCompressedToMem(t, g)
	sg, err := Open[uint32](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: DefaultPrefetchGap})
	got, err := core.SSSP[uint32](sg, 0, core.Config{Workers: 8, SemiSort: true, Prefetch: 16})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Dist {
		if want.Dist[v] != got.Dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got.Dist[v], want.Dist[v])
		}
	}
}

// A compressed traversal must read fewer device bytes than the raw format on
// the same workload — checked end to end through ssd.Stats. The graphs keep
// no cache and never window, so every adjacency read, parked or not, is its
// exact extent.
func TestCompressedReadsFewerDeviceBytes(t *testing.T) {
	g, err := gen.RMAT[uint32](10, 8, gen.RMATB, 42)
	if err != nil {
		t.Fatal(err)
	}
	run := func(back *ssd.MemBacking) uint64 {
		dev := fastDevice(back)
		sg, err := Open[uint32](dev)
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot after open: the criterion is about traversal reads, and at
		// unit-test scales the index read would otherwise dominate.
		opened := dev.Stats().BytesRead
		if _, err := core.BFS[uint32](sg, 0, core.Config{Workers: 8, SemiSort: true}); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().BytesRead - opened
	}
	rawBytes := run(writeToMem(t, g))
	compBytes := run(writeCompressedToMem(t, g))
	if compBytes*2 > rawBytes {
		t.Fatalf("compressed traversal read %d bytes, raw %d: less than the 2x target", compBytes, rawBytes)
	}
}

// Corrupt blobs must surface as decode errors, not wrong traversals.
func TestCompressedCorruptBlockSurfaces(t *testing.T) {
	g := buildGraph(t, 50, 400, false, 9)
	back := writeCompressedToMem(t, g)
	// Truncate every block's worth of blob to garbage: overwrite the last
	// byte region with continuation-bit bytes so some block decodes short.
	for i := len(back.Data) - 8; i < len(back.Data); i++ {
		back.Data[i] = 0x80
	}
	sg, err := Open[uint32](fastDevice(back))
	if err != nil {
		t.Skip("corruption caught at open; also acceptable")
	}
	scratch := &graph.Scratch[uint32]{}
	var sawErr bool
	for v := uint32(0); uint64(v) < sg.NumVertices(); v++ {
		if _, _, err := sg.Neighbors(v, scratch); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("corrupted blob decoded without error")
	}
}

// Open must reject v2 headers whose flag and version disagree, and degree
// arrays that do not sum to m.
func TestCompressedOpenRejectsCorruptHeader(t *testing.T) {
	g := buildGraph(t, 40, 200, false, 10)
	pristine := writeCompressedToMem(t, g).Data

	flip := func(mut func(d []byte)) error {
		d := append([]byte(nil), pristine...)
		mut(d)
		_, err := Open[uint32](&ssd.MemBacking{Data: d})
		return err
	}
	if err := flip(func(d []byte) { d[4] = 1 }); err == nil {
		t.Fatal("accepted version 1 with compressed flag")
	}
	if err := flip(func(d []byte) { d[headerSize+8*41] ^= 0xFF }); err == nil {
		t.Fatal("accepted corrupt degree array")
	}
}

// The v2 format works at 64-bit vertex width.
func TestCompressed64Bit(t *testing.T) {
	b := graph.NewBuilder[uint64](1<<20+5, true)
	b.AddEdge(0, 1<<20, 3)
	b.AddEdge(1<<20, 0, 4)
	b.AddEdge(5, 6, 5)
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{Compress: true}); err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint64](&ssd.MemBacking{Data: buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	scratch := &graph.Scratch[uint64]{}
	ts, ws, err := sg.Neighbors(0, scratch)
	if err != nil || len(ts) != 1 || ts[0] != 1<<20 || ws[0] != 3 {
		t.Fatalf("Neighbors(0) = %v %v %v", ts, ws, err)
	}
}

// A sweep requested over a compressed store must coalesce the variable-
// length block extents into spans and hand each block to Neighbors with the
// same contents a synchronous read yields — the zero-copy decode handoff.
func TestCompressedPrefetchConsumesSpans(t *testing.T) {
	g := buildGraph(t, 64, 700, true, 11)
	back := writeCompressedToMem(t, g)
	dev := ssd.New(ssd.Profile{Name: "fast", Channels: 64, ReadLatency: time.Microsecond}, back)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: DefaultPrefetchGap})
	scratch := &graph.Scratch[uint32]{}
	window := []uint32{3, 4, 5, 20, 21, 40}
	reads, _ := request(sg, scratch, window, nil)
	ps := sg.PrefetchStats()
	if ps.Spans == 0 {
		t.Fatalf("no spans issued for the sweep: %+v", ps)
	}
	for i, v := range window {
		scratch.Read = reads[i]
		gt, gw, err := sg.Neighbors(v, scratch)
		if err != nil {
			t.Fatal(err)
		}
		wt, ww, _ := g.Neighbors(v, nil)
		if len(gt) != len(wt) {
			t.Fatalf("vertex %d: degree %d != %d", v, len(gt), len(wt))
		}
		for i := range wt {
			if gt[i] != wt[i] || gw[i] != ww[i] {
				t.Fatalf("vertex %d edge %d: (%d,%d) != (%d,%d)", v, i, gt[i], gw[i], wt[i], ww[i])
			}
		}
	}
	if ps = sg.PrefetchStats(); ps.Consumed != uint64(len(window)) {
		t.Fatalf("consumed %d of %d sweep vertices", ps.Consumed, len(window))
	}
}

// TestNeighborsDecodeNoAllocs pins Graph.Neighbors at zero heap allocations
// in both edge formats once the worker's scratch has grown: the read lands in
// scratch.Block and the v1 records or v2 varints decode into scratch's target
// and weight buffers.
func TestNeighborsDecodeNoAllocs(t *testing.T) {
	g := buildGraph(t, 200, 2000, true, 3)
	for _, tc := range []struct {
		name string
		back *ssd.MemBacking
	}{{"v1", writeToMem(t, g)}, {"v2", writeCompressedToMem(t, g)}} {
		sg, err := Open[uint32](tc.back)
		if err != nil {
			t.Fatal(err)
		}
		scratch := &graph.Scratch[uint32]{}
		decode := func() {
			for v := uint32(0); v < 200; v++ {
				if _, _, err := sg.Neighbors(v, scratch); err != nil {
					t.Fatal(err)
				}
			}
		}
		decode() // warm: grows the scratch buffers to the largest adjacency
		if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
			t.Fatalf("%s: decoding 200 adjacencies allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}

// TestRequestResidentNoAllocs pins the parked path's common case at zero heap
// allocations: once every block is cached, Request reports nothing to wait
// for and the Neighbors call that follows decodes from the entries Request
// held, in both edge formats, with no further read of the table.
func TestRequestResidentNoAllocs(t *testing.T) {
	g := buildGraph(t, 200, 2000, true, 3)
	for _, tc := range []struct {
		name string
		back *ssd.MemBacking
	}{{"v1", writeToMem(t, g)}, {"v2", writeCompressedToMem(t, g)}} {
		cache, err := NewCachedStore(fastDevice(tc.back), 512, int64(len(tc.back.Data)))
		if err != nil {
			t.Fatal(err)
		}
		sg, err := Open[uint32](cache)
		if err != nil {
			t.Fatal(err)
		}
		scratch := &graph.Scratch[uint32]{}
		vs, reads, waits := make([]uint32, 1), make([]any, 1), make([]<-chan struct{}, 1)
		request := func(v uint32) {
			vs[0] = v
			sg.Request(vs, reads, waits, nil, scratch)
			scratch.Read = reads[0]
		}
		visit := func() {
			for v := uint32(0); v < 200; v++ {
				if request(v); waits[0] != nil {
					<-waits[0]
				}
				if _, _, err := sg.Neighbors(v, scratch); err != nil {
					t.Fatal(err)
				}
			}
		}
		visit() // warm: fills the cache and grows the scratch buffers
		_, misses := cache.Stats()
		if allocs := testing.AllocsPerRun(20, visit); allocs != 0 {
			t.Fatalf("%s: requesting and decoding 200 resident adjacencies allocates %.1f times, want 0", tc.name, allocs)
		}
		// The table counts a hit per block claimed: decoding adds none.
		claims := func(fn func(v uint32)) uint64 {
			h, _ := cache.Stats()
			for v := uint32(0); v < 200; v++ {
				fn(v)
			}
			after, _ := cache.Stats()
			return after - h
		}
		requests := claims(request)
		visits := claims(func(v uint32) {
			request(v)
			if _, _, err := sg.Neighbors(v, scratch); err != nil {
				t.Fatal(err)
			}
		})
		if _, m := cache.Stats(); m != misses || visits != requests {
			t.Fatalf("%s: %d misses after warming, %d claims with decoding against %d without", tc.name, m-misses, visits, requests)
		}
	}
}
