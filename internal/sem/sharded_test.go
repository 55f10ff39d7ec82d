package sem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/ssd"
)

// writeShardBytes serializes one shard of g in the requested format.
func writeShardBytes(t testing.TB, g *graph.CSR[uint32], shard, shards int, compressed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := Write(&buf, g, WriteConfig{Compress: compressed, Shard: &ShardConfig{Shard: shard, Shards: shards}})
	if err != nil {
		t.Fatalf("write shard %d/%d (compressed=%v): %v", shard, shards, compressed, err)
	}
	return buf.Bytes()
}

// openShardSet writes and reopens a complete shard set of g.
func openShardSet(t testing.TB, g *graph.CSR[uint32], shards int, compressed bool) []*Graph[uint32] {
	t.Helper()
	gs := make([]*Graph[uint32], shards)
	for k := range gs {
		sg, err := Open[uint32](bytes.NewReader(writeShardBytes(t, g, k, shards, compressed)))
		if err != nil {
			t.Fatalf("open shard %d/%d: %v", k, shards, err)
		}
		gs[k] = sg
	}
	return gs
}

func TestShardFileName(t *testing.T) {
	if got := ShardFileName("b16.asg", 2); got != "b16.asg.shard2" {
		t.Fatalf("ShardFileName = %q", got)
	}
}

func TestShardConfigValidate(t *testing.T) {
	cases := []struct {
		cfg ShardConfig
		ok  bool
	}{
		{ShardConfig{Shard: 0, Shards: 1}, true},
		{ShardConfig{Shard: 3, Shards: 4}, true},
		{ShardConfig{Shard: 0, Shards: 0}, false},
		{ShardConfig{Shard: 0, Shards: -2}, false},
		{ShardConfig{Shard: -1, Shards: 2}, false},
		{ShardConfig{Shard: 2, Shards: 2}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", c.cfg, err)
		}
		if !c.ok {
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", c.cfg)
			}
			if !errors.Is(err, ErrShardSpec) {
				t.Fatalf("Validate(%+v) = %v, want ErrShardSpec", c.cfg, err)
			}
		}
	}
}

func TestShardMapRoundTrip(t *testing.T) {
	g := buildGraph(t, 64, 300, true, 21)
	for _, compressed := range []bool{false, true} {
		sg, err := Open[uint32](bytes.NewReader(writeShardBytes(t, g, 1, 3, compressed)))
		if err != nil {
			t.Fatalf("open (compressed=%v): %v", compressed, err)
		}
		if !sg.Sharded() || sg.Shard() != 1 || sg.Shards() != 3 {
			t.Fatalf("shard map: sharded=%v shard=%d shards=%d", sg.Sharded(), sg.Shard(), sg.Shards())
		}
		if sg.TotalEdges() != g.NumEdges() {
			t.Fatalf("TotalEdges = %d, want %d", sg.TotalEdges(), g.NumEdges())
		}
		if sg.NumEdges() >= g.NumEdges() {
			t.Fatalf("shard holds %d of %d edges; expected a strict subset", sg.NumEdges(), g.NumEdges())
		}
		if sg.Compressed() != compressed {
			t.Fatalf("Compressed = %v, want %v", sg.Compressed(), compressed)
		}
	}
	// Plain writers stay shard-free: TotalEdges falls back to the header m.
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	pg, err := Open[uint32](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if pg.Sharded() || pg.Shards() != 0 || pg.TotalEdges() != g.NumEdges() {
		t.Fatalf("plain file: sharded=%v shards=%d total=%d", pg.Sharded(), pg.Shards(), pg.TotalEdges())
	}
}

func TestMountShardsEquivalence(t *testing.T) {
	g := buildGraph(t, 200, 1500, true, 33)
	for _, compressed := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			mounted, err := MountShards(openShardSet(t, g, shards, compressed))
			if err != nil {
				t.Fatalf("MountShards(%d, compressed=%v): %v", shards, compressed, err)
			}
			if mounted.NumVertices() != g.NumVertices() || mounted.NumEdges() != g.NumEdges() {
				t.Fatalf("mount sizes: n=%d m=%d, want n=%d m=%d",
					mounted.NumVertices(), mounted.NumEdges(), g.NumVertices(), g.NumEdges())
			}
			scratch := &graph.Scratch[uint32]{}
			for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
				wantTs, wantWs, _ := g.Neighbors(v, nil)
				ts, ws, err := mounted.Neighbors(v, scratch)
				if err != nil {
					t.Fatalf("Neighbors(%d): %v", v, err)
				}
				if len(ts) != len(wantTs) {
					t.Fatalf("shards=%d compressed=%v: degree(%d) = %d, want %d",
						shards, compressed, v, len(ts), len(wantTs))
				}
				for i := range ts {
					if ts[i] != wantTs[i] || ws[i] != wantWs[i] {
						t.Fatalf("shards=%d compressed=%v: edge %d of vertex %d differs",
							shards, compressed, i, v)
					}
				}
			}
		}
	}
}

func TestMountShardsMixedFormats(t *testing.T) {
	// v1 and v2 members may coexist in one mount: each decodes its own extents.
	g := buildGraph(t, 120, 700, false, 9)
	raw, err := Open[uint32](bytes.NewReader(writeShardBytes(t, g, 0, 2, false)))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Open[uint32](bytes.NewReader(writeShardBytes(t, g, 1, 2, true)))
	if err != nil {
		t.Fatal(err)
	}
	mounted, err := MountShards([]*Graph[uint32]{raw, comp})
	if err != nil {
		t.Fatalf("mixed-format mount: %v", err)
	}
	scratch := &graph.Scratch[uint32]{}
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		want, _, _ := g.Neighbors(v, nil)
		got, _, err := mounted.Neighbors(v, scratch)
		if err != nil {
			t.Fatalf("Neighbors(%d): %v", v, err)
		}
		if len(got) != len(want) {
			t.Fatalf("degree(%d) = %d, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("edge %d of vertex %d differs", i, v)
			}
		}
	}
}

func TestMountShardsSinglePlainFile(t *testing.T) {
	g := buildGraph(t, 80, 400, false, 4)
	var buf bytes.Buffer
	if err := Write(&buf, g, WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mounted, err := MountShards([]*Graph[uint32]{sg})
	if err != nil {
		t.Fatalf("a single plain file is the 1-way partition: %v", err)
	}
	if mounted.NumEdges() != g.NumEdges() {
		t.Fatalf("plain mount: m=%d, want %d", mounted.NumEdges(), g.NumEdges())
	}
}

func TestMountShardsRejectsBadSets(t *testing.T) {
	g := buildGraph(t, 150, 900, true, 17)
	set3 := openShardSet(t, g, 3, false)
	var plainBuf bytes.Buffer
	if err := Write(&plainBuf, g, WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	plain, err := Open[uint32](bytes.NewReader(plainBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	other := buildGraph(t, 150, 500, true, 99)
	otherShard1, err := Open[uint32](bytes.NewReader(writeShardBytes(t, other, 1, 3, false)))
	if err != nil {
		t.Fatal(err)
	}
	smaller := buildGraph(t, 75, 300, true, 5)
	smallSet := openShardSet(t, smaller, 3, false)
	unweighted := buildGraph(t, 150, 900, false, 17)
	unweightedSet := openShardSet(t, unweighted, 3, false)

	cases := []struct {
		name string
		gs   []*Graph[uint32]
	}{
		{"empty set", nil},
		{"out of shard order", []*Graph[uint32]{set3[0], set3[2], set3[1]}},
		{"incomplete partition", []*Graph[uint32]{set3[0], set3[1]}},
		{"duplicate shard", []*Graph[uint32]{set3[0], set3[1], set3[1]}},
		{"plain file in a multi-file set", []*Graph[uint32]{set3[0], plain, set3[2]}},
		{"shard of a different graph", []*Graph[uint32]{set3[0], otherShard1, set3[2]}},
		{"vertex-count mismatch", []*Graph[uint32]{set3[0], smallSet[1], set3[2]}},
		{"weightedness mismatch", []*Graph[uint32]{set3[0], unweightedSet[1], set3[2]}},
	}
	for _, c := range cases {
		if _, err := MountShards(c.gs); err == nil {
			t.Fatalf("%s: MountShards succeeded, want error", c.name)
		} else if !errors.Is(err, ErrShardSpec) {
			t.Fatalf("%s: error %v does not wrap ErrShardSpec", c.name, err)
		}
	}
}

func TestOpenRejectsCorruptShardMap(t *testing.T) {
	g := buildGraph(t, 60, 250, false, 2)
	pristine := writeShardBytes(t, g, 0, 2, false)
	corrupt := func(mutate func(raw []byte)) error {
		raw := bytes.Clone(pristine)
		mutate(raw)
		_, err := Open[uint32](bytes.NewReader(raw))
		return err
	}
	cases := []struct {
		name   string
		mutate func(raw []byte)
	}{
		{"zero shard count", func(raw []byte) { binary.LittleEndian.PutUint32(raw[44:], 0) }},
		{"shard out of range", func(raw []byte) { binary.LittleEndian.PutUint32(raw[40:], 7) }},
		{"unknown hash id", func(raw []byte) { binary.LittleEndian.PutUint32(raw[56:], 42) }},
		{"total below shard edges", func(raw []byte) { binary.LittleEndian.PutUint64(raw[48:], 0) }},
	}
	for _, c := range cases {
		err := corrupt(c.mutate)
		if err == nil {
			t.Fatalf("%s: Open succeeded, want error", c.name)
		}
		if !errors.Is(err, ErrShardSpec) {
			t.Fatalf("%s: error %v does not wrap ErrShardSpec", c.name, err)
		}
	}
	if _, err := Open[uint32](bytes.NewReader(pristine)); err != nil {
		t.Fatalf("pristine shard file failed to open: %v", err)
	}
}

func TestLoadShardedCSR(t *testing.T) {
	g := buildGraph(t, 180, 1100, true, 41)
	for _, compressed := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			stores := make([]Store, shards)
			for k := range stores {
				stores[k] = bytes.NewReader(writeShardBytes(t, g, k, shards, compressed))
			}
			got, err := LoadShardedCSR[uint32](stores)
			if err != nil {
				t.Fatalf("LoadShardedCSR(%d, compressed=%v): %v", shards, compressed, err)
			}
			if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
				t.Fatalf("sizes: n=%d m=%d, want n=%d m=%d",
					got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
			}
			for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
				wantTs, wantWs, _ := g.Neighbors(v, nil)
				ts, ws, _ := got.Neighbors(v, nil)
				if len(ts) != len(wantTs) {
					t.Fatalf("degree(%d) = %d, want %d", v, len(ts), len(wantTs))
				}
				for i := range ts {
					if ts[i] != wantTs[i] || ws[i] != wantWs[i] {
						t.Fatalf("edge %d of vertex %d differs", i, v)
					}
				}
			}
		}
	}
	// Order matters: a shuffled store list is a spec error, not silent misreads.
	stores := []Store{
		bytes.NewReader(writeShardBytes(t, g, 1, 2, false)),
		bytes.NewReader(writeShardBytes(t, g, 0, 2, false)),
	}
	if _, err := LoadShardedCSR[uint32](stores); !errors.Is(err, ErrShardSpec) {
		t.Fatalf("shuffled stores: err = %v, want ErrShardSpec", err)
	}
}

// TestShardedSEMWithDevices mounts a 4-shard set over four simulated flash
// devices with prefetching enabled and checks that batched windows fan out:
// after touching every vertex via NeighborsBatch+Neighbors, every member
// device has serviced reads and every member prefetcher has issued spans.
func TestShardedSEMWithDevices(t *testing.T) {
	g := buildGraph(t, 400, 4000, false, 55)
	const shards = 4
	devs := make([]*ssd.Device, shards)
	gs := make([]*Graph[uint32], shards)
	for k := 0; k < shards; k++ {
		devs[k] = fastDevice(&ssd.MemBacking{Data: writeShardBytes(t, g, k, shards, false)})
		sg, err := Open[uint32](devs[k])
		if err != nil {
			t.Fatal(err)
		}
		sg.EnablePrefetch(PrefetchConfig{})
		gs[k] = sg
	}
	mounted, err := MountShards(gs)
	if err != nil {
		t.Fatal(err)
	}
	scratch := &graph.Scratch[uint32]{}
	window := make([]uint32, 0, 64)
	flush := func() {
		mounted.NeighborsBatch(window, scratch)
		for _, v := range window {
			ts, _, err := mounted.Neighbors(v, scratch)
			if err != nil {
				t.Fatalf("Neighbors(%d): %v", v, err)
			}
			if len(ts) != g.Degree(v) {
				t.Fatalf("degree(%d) = %d, want %d", v, len(ts), g.Degree(v))
			}
		}
		window = window[:0]
	}
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		window = append(window, v)
		if len(window) == cap(window) {
			flush()
		}
	}
	flush()
	var agg PrefetchStats
	for k := 0; k < shards; k++ {
		if st := devs[k].Stats(); st.Reads == 0 {
			t.Fatalf("shard %d device serviced no reads; window fan-out broken", k)
		}
		ps := gs[k].PrefetchStats()
		if ps.Spans == 0 {
			t.Fatalf("shard %d prefetcher issued no spans", k)
		}
		agg.Add(ps)
	}
	if agg.Spans == 0 || agg.Vertices == 0 {
		t.Fatalf("aggregated prefetch stats empty: %+v", agg)
	}
}
