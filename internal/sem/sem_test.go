package sem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ssd"
)

func buildGraph(t testing.TB, n uint64, m int, weighted bool, seed uint64) *graph.CSR[uint32] {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed^7))
	b := graph.NewBuilder[uint32](n, weighted)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(r.Uint64N(n)), uint32(r.Uint64N(n)), graph.Weight(r.Uint64N(50)))
	}
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func writeToMem[V graph.Vertex](t testing.TB, g *graph.CSR[V]) *ssd.MemBacking {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	return &ssd.MemBacking{Data: buf.Bytes()}
}

// fastDevice wraps a mem backing with negligible latency for unit tests.
func fastDevice(backing *ssd.MemBacking) *ssd.Device {
	return ssd.New(ssd.Profile{Name: "fast", Channels: 64, ReadLatency: time.Nanosecond}, backing)
}

func TestRoundTripUnweighted(t *testing.T) {
	g := buildGraph(t, 100, 600, false, 1)
	back := writeToMem(t, g)
	got, err := LoadCSR[uint32](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip sizes: n=%d m=%d", got.NumVertices(), got.NumEdges())
	}
	for v := uint32(0); v < 100; v++ {
		want, _, _ := g.Neighbors(v, nil)
		have, _, _ := got.Neighbors(v, nil)
		if len(want) != len(have) {
			t.Fatalf("adj(%d): %v vs %v", v, want, have)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("adj(%d)[%d]: %d vs %d", v, i, want[i], have[i])
			}
		}
	}
}

func TestRoundTripWeighted(t *testing.T) {
	g := buildGraph(t, 80, 500, true, 2)
	back := writeToMem(t, g)
	sg, err := Open[uint32](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	if !sg.Weighted() {
		t.Fatal("weighted flag lost")
	}
	if sg.NumEdges() != g.NumEdges() {
		t.Fatalf("m = %d, want %d", sg.NumEdges(), g.NumEdges())
	}
	scratch := &graph.Scratch[uint32]{}
	for v := uint32(0); v < 80; v++ {
		wt, ww, _ := g.Neighbors(v, nil)
		gt, gw, err := sg.Neighbors(v, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(wt) != len(gt) {
			t.Fatalf("adj(%d) length %d vs %d", v, len(wt), len(gt))
		}
		for i := range wt {
			if wt[i] != gt[i] || ww[i] != gw[i] {
				t.Fatalf("adj(%d)[%d]: (%d,%d) vs (%d,%d)", v, i, wt[i], ww[i], gt[i], gw[i])
			}
		}
		if sg.Degree(v) != len(wt) {
			t.Fatalf("degree(%d) = %d, want %d", v, sg.Degree(v), len(wt))
		}
	}
}

func TestRoundTripUint64(t *testing.T) {
	b := graph.NewBuilder[uint64](5, true)
	b.AddEdge(0, 4, 9)
	b.AddEdge(4, 2, 3)
	g, err := b.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	back := writeToMem(t, g)
	sg, err := Open[uint64](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	scratch := &graph.Scratch[uint64]{}
	ts, ws, err := sg.Neighbors(4, scratch)
	if err != nil || len(ts) != 1 || ts[0] != 2 || ws[0] != 3 {
		t.Fatalf("adj(4) = %v %v %v", ts, ws, err)
	}
}

func TestVertexWidthMismatch(t *testing.T) {
	g := buildGraph(t, 10, 20, false, 3)
	back := writeToMem(t, g) // 32-bit file
	if _, err := Open[uint64](fastDevice(back)); err == nil {
		t.Fatal("64-bit open of 32-bit file did not error")
	}
}

func TestOpenRejectsCorruptHeader(t *testing.T) {
	g := buildGraph(t, 10, 20, false, 4)
	pristine := writeToMem(t, g).Data

	corrupt := func(mutate func(b []byte)) error {
		data := append([]byte(nil), pristine...)
		mutate(data)
		_, err := Open[uint32](fastDevice(&ssd.MemBacking{Data: data}))
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 99) }); err == nil {
		t.Fatal("bad version accepted")
	}
	if err := corrupt(func(b []byte) {
		// Corrupt the last offset so offsets[n] != m.
		n := binary.LittleEndian.Uint64(b[16:])
		binary.LittleEndian.PutUint64(b[40+n*8:], 1<<60)
	}); err == nil {
		t.Fatal("corrupt index accepted")
	}
	// An index that does not start at 0 silently drops edges (v1) or shifts
	// every block (v2); both formats go through the one section validator.
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Write(&buf, g, WriteConfig{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		binary.LittleEndian.PutUint64(data[headerSize:], 1)
		_, err := Open[uint32](fastDevice(&ssd.MemBacking{Data: data}))
		if err == nil || !strings.Contains(err.Error(), "edge index") {
			t.Fatalf("compress=%v: offsets[0]=1 not rejected as a corrupt edge index: %v", compress, err)
		}
	}
	if _, err := Open[uint32](fastDevice(&ssd.MemBacking{Data: pristine[:20]})); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := Open[uint32](fastDevice(&ssd.MemBacking{Data: pristine[:60]})); err == nil {
		t.Fatal("truncated index accepted")
	}
}

func TestNeighborsEmptyAdjacency(t *testing.T) {
	g := buildGraph(t, 10, 0, false, 5)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	ts, ws, err := sg.Neighbors(3, &graph.Scratch[uint32]{})
	if err != nil || ts != nil || ws != nil {
		t.Fatalf("empty adjacency = %v %v %v", ts, ws, err)
	}
}

// erroringStore fails after a number of reads, simulating device failure
// mid-traversal.
type erroringStore struct {
	inner Store
	after int64
	count atomic.Int64
}

func (e *erroringStore) ReadAt(p []byte, off int64) (int, error) {
	if e.count.Add(1) > e.after {
		return 0, errors.New("device failure")
	}
	return e.inner.ReadAt(p, off)
}

// TestTraversalSurfacesDeviceFailure fails the device halfway through a
// traversal's reads. How many reads a traversal makes depends on its read
// shape — one per visit when a visit reads its extent, as on this uncached
// graph, a few when parked visitors share 4 KiB blocks — and, when they
// share, on which reads are in flight together, so healthy runs count them
// first and the fewest counts.
func TestTraversalSurfacesDeviceFailure(t *testing.T) {
	g := buildGraph(t, 200, 2000, false, 6)
	back := writeToMem(t, g)
	// bfs fails the device after its first `after` traversal reads and
	// reports how many the traversal made.
	bfs := func(after int64) (reads int64, err error) {
		store := &erroringStore{inner: fastDevice(back), after: math.MaxInt64}
		sg, err := Open[uint32](store)
		if err != nil {
			t.Fatal(err)
		}
		opened := store.count.Load()
		store.after = opened + after
		_, err = core.BFS[uint32](sg, 0, core.Config{Workers: 4})
		return store.count.Load() - opened, err
	}
	healthy := int64(math.MaxInt64)
	for range 5 {
		reads, err := bfs(math.MaxInt64 / 2)
		if err != nil {
			t.Fatal(err)
		}
		healthy = min(healthy, reads)
	}
	if healthy < 2 {
		t.Fatalf("a healthy BFS read the device %d times: nothing to fail halfway", healthy)
	}
	if _, err := bfs(healthy / 2); err == nil {
		t.Fatalf("BFS over a device failing after %d of its %d reads did not return an error", healthy/2, healthy)
	}
}

func TestSEMBFSMatchesInMemory(t *testing.T) {
	g, err := gen.RMAT[uint32](10, 8, gen.RMATA, 11)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.SerialBFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BFS[uint32](sg, 0, core.Config{Workers: 16, SemiSort: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], want[v])
		}
	}
}

func TestSEMSSSPMatchesDijkstra(t *testing.T) {
	g, err := gen.RMAT[uint32](9, 8, gen.RMATB, 12)
	if err != nil {
		t.Fatal(err)
	}
	g, err = gen.UniformWeights(g, 13)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := baseline.SerialDijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SSSP[uint32](sg, 0, core.Config{Workers: 16, SemiSort: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
}

func TestSEMCCMatchesSerial(t *testing.T) {
	g, err := gen.RMATUndirected[uint32](9, 4, gen.RMATA, 14)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.SerialCC(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CC[uint32](sg, core.Config{Workers: 16, SemiSort: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.ID[v] != want[v] {
			t.Fatalf("id[%d] = %d, want %d", v, res.ID[v], want[v])
		}
	}
}

func TestEdgeBytesMatchesLayout(t *testing.T) {
	g := buildGraph(t, 50, 300, true, 7)
	back := writeToMem(t, g)
	sg, err := Open[uint32](fastDevice(back))
	if err != nil {
		t.Fatal(err)
	}
	wantFile := int64(headerSize) + int64(51)*8 + sg.EdgeBytes()
	if back.Size() != wantFile {
		t.Fatalf("file size = %d, want %d", back.Size(), wantFile)
	}
	if sg.EdgeBytes() != int64(g.NumEdges())*8 { // 4B target + 4B weight
		t.Fatalf("edge bytes = %d", sg.EdgeBytes())
	}
}

// Property: any CSR survives a write/open/load round trip bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	type rawEdge struct {
		S, D uint8
		W    uint8
	}
	f := func(raw []rawEdge, weighted bool) bool {
		const n = 256
		b := graph.NewBuilder[uint32](n, weighted)
		for _, e := range raw {
			b.AddEdge(uint32(e.S), uint32(e.D), graph.Weight(e.W))
		}
		g, err := b.Build(false)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, g, WriteConfig{}); err != nil {
			return false
		}
		got, err := LoadCSR[uint32](fastDevice(&ssd.MemBacking{Data: buf.Bytes()}))
		if err != nil {
			return false
		}
		if got.NumEdges() != g.NumEdges() || got.Weighted() != g.Weighted() {
			return false
		}
		ok := true
		i := 0
		wantEdges := make([]graph.Edge[uint32], 0, g.NumEdges())
		g.ForEachEdge(func(u, v uint32, w graph.Weight) {
			wantEdges = append(wantEdges, graph.Edge[uint32]{Src: u, Dst: v, W: w})
		})
		got.ForEachEdge(func(u, v uint32, w graph.Weight) {
			if i >= len(wantEdges) || wantEdges[i] != (graph.Edge[uint32]{Src: u, Dst: v, W: w}) {
				ok = false
			}
			i++
		})
		return ok && i == len(wantEdges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsUnknownFlags: a header bit the reader does not know could
// move what follows the header, so Open refuses the file rather than reading
// whatever sits there as the index. Bit 3 is known — it announces a shard map
// — and on a plain image it makes Open read the index's first bytes as one,
// which no valid map matches.
func TestOpenRejectsUnknownFlags(t *testing.T) {
	g := buildGraph(t, 40, 200, true, 3)
	for _, compressed := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Write(&buf, g, WriteConfig{Compress: compressed}); err != nil {
			t.Fatal(err)
		}
		withFlag := func(bit uint64) error {
			raw := bytes.Clone(buf.Bytes())
			binary.LittleEndian.PutUint64(raw[8:], binary.LittleEndian.Uint64(raw[8:])|bit)
			_, err := Open[uint32](bytes.NewReader(raw))
			return err
		}
		for _, bit := range []uint64{1 << 6, 1 << 40} {
			want := fmt.Sprintf("sem: unsupported header flags %#x", bit)
			if err := withFlag(bit); err == nil || err.Error() != want {
				t.Errorf("compressed=%v, bit %#x: err = %v, want %q", compressed, bit, err, want)
			}
		}
		if err := withFlag(flagSharded); !errors.Is(err, ErrShardSpec) {
			t.Errorf("compressed=%v, shard bit on a plain image: err = %v, want ErrShardSpec", compressed, err)
		}
		if err := withFlag(0); err != nil {
			t.Errorf("compressed=%v: the untouched image failed to open: %v", compressed, err)
		}
	}
}
