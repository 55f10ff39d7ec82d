package mount

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// fast is a device model with no latency worth sleeping for.
var fast = ssd.Profile{Name: "fast", Channels: 64, ReadLatency: time.Nanosecond}

func testGraph(t *testing.T) (*graph.CSR[uint32], uint32) {
	t.Helper()
	g, err := gen.RMAT[uint32](9, 8, gen.RMATA, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g, err = gen.UniformWeights(g, 7); err != nil {
		t.Fatal(err)
	}
	return g, graph.MaxDegreeVertex[uint32](g)
}

// images serializes g as one plain image (shards <= 1) or a shard set.
func images(t *testing.T, g *graph.CSR[uint32], cfg sem.WriteConfig, shards int) [][]byte {
	t.Helper()
	if shards < 1 {
		shards = 1
	}
	out := make([][]byte, shards)
	for k := range out {
		if shards > 1 {
			cfg.Shard = &sem.ShardConfig{Shard: k, Shards: shards}
		}
		var buf bytes.Buffer
		if err := sem.Write(&buf, g, cfg); err != nil {
			t.Fatal(err)
		}
		out[k] = buf.Bytes()
	}
	return out
}

func memBackings(imgs [][]byte) []ssd.Backing {
	out := make([]ssd.Backing, len(imgs))
	for k, img := range imgs {
		out[k] = &ssd.MemBacking{Data: img}
	}
	return out
}

// TestMountTable mounts one graph every way the callers do and checks, per
// configuration, that BFS and SSSP on the returned adjacency under the
// returned engine configuration match the serial baselines, that the layers
// the options ask for are the layers present, and that the read path is the
// one the mount derives from them: behind the cache the traversal feeds the
// replacement order and nothing windows, on the raw device the engine pops
// 16-visitor windows and the prefetcher consumes them.
func TestMountTable(t *testing.T) {
	g, src := testGraph(t)
	wantLevel, err := baseline.SerialBFS[uint32](g, src)
	if err != nil {
		t.Fatal(err)
	}
	wantDist, _, err := baseline.SerialDijkstra[uint32](g, src)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := sem.WriteConfig{}, sem.WriteConfig{Compress: true}
	sem1 := Options{SEM: true, Profile: fast}
	raw := Options{SEM: true, Profile: fast, NoCache: true}
	with := func(o Options, f func(*Options)) Options { f(&o); return o }
	none := func(*testing.T, *Mounted) {}
	cases := []struct {
		name   string
		write  sem.WriteConfig
		shards int
		opt    Options
		check  func(t *testing.T, m *Mounted)
	}{
		{"IM", v1, 1, Options{}, func(t *testing.T, m *Mounted) {
			if m.CSR == nil || m.Adj != graph.Adjacency[uint32](m.CSR) || m.Graphs != nil || m.Shards != 0 {
				t.Errorf("in-memory mount: CSR=%v graphs=%d shards=%d", m.CSR != nil, len(m.Graphs), m.Shards)
			}
		}},
		{"IM hybrid", sem.WriteConfig{InEdges: true}, 1, Options{}, func(t *testing.T, m *Mounted) {
			if _, ok := m.Adj.(*graph.Bidi[uint32]); !ok {
				t.Errorf("in-memory mount of a file with in-edges is %T, want the CSR paired with its transpose", m.Adj)
			}
			if m.Engine.Alpha <= 0 || m.Engine.Beta <= 0 {
				t.Errorf("thresholds not derived: alpha=%d beta=%d", m.Engine.Alpha, m.Engine.Beta)
			}
		}},
		{"IM from 4 shards", v1, 4, Options{}, func(t *testing.T, m *Mounted) {
			if m.CSR == nil || m.Shards != 4 || m.CSR.NumEdges() != g.NumEdges() {
				t.Errorf("merged shard set: CSR=%v shards=%d", m.CSR != nil, m.Shards)
			}
		}},
		{"SEM cached", v1, 1, sem1, func(t *testing.T, m *Mounted) {
			if len(m.Devices) != 1 || len(m.Caches) != 1 {
				t.Errorf("default SEM mount: %d devices, %d caches", len(m.Devices), len(m.Caches))
			}
			if hits, misses := m.Caches[0].Stats(); hits+misses == 0 {
				t.Error("traversals did not read through the block cache")
			}
		}},
		{"SEM nocache window 16", v1, 1, raw, none},
		{"compressed cached", v2, 1, sem1, none},
		{"compressed nocache", v2, 1, raw, none},
		{"compressed + in-edges hybrid", sem.WriteConfig{Compress: true, InEdges: true}, 1, sem1,
			func(t *testing.T, m *Mounted) {
				if !m.Graphs[0].Compressed() || !m.Graphs[0].HasInEdges() || m.Engine.Alpha <= 0 {
					t.Errorf("compressed=%v inEdges=%v alpha=%d", m.Graphs[0].Compressed(), m.Graphs[0].HasInEdges(), m.Engine.Alpha)
				}
			}},
		{"4 shards", v1, 4, sem1, func(t *testing.T, m *Mounted) {
			if _, ok := m.Adj.(*graph.Sharded[uint32]); !ok || m.Shards != 4 || len(m.Devices) != 4 || len(m.Caches) != 4 || len(m.Graphs) != 4 {
				t.Errorf("sharded mount: adj=%T shards=%d devices=%d caches=%d graphs=%d", m.Adj, m.Shards, len(m.Devices), len(m.Caches), len(m.Graphs))
			}
			var misses uint64
			for _, c := range m.Caches {
				_, mi := c.Stats()
				misses += mi
			}
			if io := m.IO().Cache; io.Fetches != misses || io.Blocks < io.Fetches || io.InflightHW < 1 || io.InflightHW > 8*4*defaultReadahead {
				t.Errorf("rolled-up cache I/O %+v with %d misses over the shards, 8 workers", io, misses)
			}
		}},
		{"4 shards nocache", v1, 4, raw, func(t *testing.T, m *Mounted) {
			if m.Shards != 4 || len(m.Devices) != 4 || len(m.Graphs) != 4 {
				t.Errorf("sharded raw mount: shards=%d devices=%d graphs=%d", m.Shards, len(m.Devices), len(m.Graphs))
			}
		}},
		{"compressed 4 shards", v2, 4, sem1, none},
		{"compressed 4 shards nocache", v2, 4, raw, none},
		{"state policy", v1, 1, with(sem1, func(o *Options) { o.CacheFrac = 8 }), none},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Graph(memBackings(images(t, g, tc.write, tc.shards)), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			cfg := m.Engine
			cfg.Workers = 8
			if cfg.SemiSort != tc.opt.SEM || cfg.Direction != core.DirectionAuto {
				t.Errorf("engine config %+v: want the sort key exactly on a semi-external mount, and the driver left to BFS", cfg)
			}
			if _, capable := graph.InEdges[uint32](m.Adj); capable != tc.write.InEdges || capable != (cfg.Alpha > 0) {
				t.Errorf("in-edge capable=%v alpha=%d, the file was written with InEdges=%v", capable, cfg.Alpha, tc.write.InEdges)
			}
			// The asynchronous kernel is what feeds a cache (the
			// level-synchronous driver has no visitor queues), so the
			// derived-behaviour checks below read its counters.
			td := cfg
			td.Direction = core.DirectionTopDown
			if _, err := core.BFS[uint32](m.Adj, src, td); err != nil {
				t.Fatal(err)
			}
			ps := m.IO().Prefetch
			switch {
			case !tc.opt.SEM:
				if cfg.Prefetch != 0 || m.Caches != nil {
					t.Errorf("in-memory mount: window=%d caches=%d", cfg.Prefetch, len(m.Caches))
				}
			case tc.opt.NoCache:
				if m.Caches != nil || cfg.Prefetch != 16 || ps.Windows == 0 {
					t.Errorf("raw-device mount: caches=%d window=%d, the prefetcher saw %d windows", len(m.Caches), cfg.Prefetch, ps.Windows)
				}
			default:
				if cfg.Prefetch != 0 || ps.Windows != 0 {
					t.Errorf("cached mount: window=%d, a prefetcher saw %d windows", cfg.Prefetch, ps.Windows)
				}
				for i, c := range m.Caches {
					if c.PinnedHW() == 0 {
						t.Errorf("cache %d ended a BFS with pinnedHW=0: the traversal did not feed it", i)
					}
				}
			}
			bfs, err := core.BFS[uint32](m.Adj, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sssp, err := core.SSSP[uint32](m.Adj, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v := range wantLevel {
				if bfs.Level[v] != wantLevel[v] {
					t.Fatalf("BFS level[%d] = %d, want %d", v, bfs.Level[v], wantLevel[v])
				}
				if sssp.Dist[v] != wantDist[v] {
					t.Fatalf("SSSP dist[%d] = %d, want %d", v, sssp.Dist[v], wantDist[v])
				}
			}
			tc.check(t, m)
		})
	}
}

// TestCacheRecipe pins the budget arithmetic: half the store and readahead 8
// by default, the divisor and the floor when set.
func TestCacheRecipe(t *testing.T) {
	for _, tc := range []struct {
		opt  Options
		size int64
		want int64
	}{
		{Options{}, 1 << 20, 1 << 19},
		{Options{CacheFrac: 32}, 1 << 20, 1 << 15},
		{Options{CacheFrac: 2, CacheFloor: 64 << 10}, 100 << 10, 64 << 10},
		{Options{CacheFrac: 2, CacheFloor: 64 << 10}, 1 << 20, 1 << 19},
	} {
		if got := tc.opt.cacheBudget(tc.size); got != tc.want {
			t.Errorf("%+v over %d bytes: budget %d, want %d", tc.opt, tc.size, got, tc.want)
		}
	}
	if (Options{}).readahead() != 8 || (Options{Readahead: 1}).readahead() != 1 {
		t.Error("readahead default is not 8, or an explicit 1 is not honored")
	}
}

// TestStoresOverRAID0 mounts over a caller-built stripe set, the one stack
// Graph cannot build itself.
func TestStoresOverRAID0(t *testing.T) {
	g, src := testGraph(t)
	want, err := baseline.SerialBFS[uint32](g, src)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ssd.NewRAID0Array(fast, 2, 64<<10, memBackings(images(t, g, sem.WriteConfig{}, 1))[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := Stores([]sem.Store{arr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Devices != nil || len(m.Caches) != 1 || !m.Engine.SemiSort {
		t.Fatalf("devices=%d caches=%d semisort=%v, want the caller's devices left alone behind one cache, under the semi-external engine config", len(m.Devices), len(m.Caches), m.Engine.SemiSort)
	}
	cfg := m.Engine
	cfg.Workers = 8
	got, err := core.BFS[uint32](m.Adj, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, got.Level[v], want[v])
		}
	}
	if _, err := Stores([]sem.Store{bytes.NewReader(nil)}, Options{}); err == nil {
		t.Error("a store of unknown size was accepted behind the block cache")
	}
}

// TestFiles covers the path half: plain files, auto-detected and pinned shard
// sets, and a pinned width the files contradict.
func TestFiles(t *testing.T) {
	g, src := testGraph(t)
	want, err := baseline.SerialBFS[uint32](g, src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "g.asg")
	if err := os.WriteFile(plain, images(t, g, sem.WriteConfig{}, 1)[0], 0o644); err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(dir, "s.asg")
	for k, img := range images(t, g, sem.WriteConfig{}, 4) {
		if err := os.WriteFile(sem.ShardFileName(sharded, k), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		path   string
		opt    Options
		shards int
	}{
		{"plain IM", plain, Options{}, 0},
		{"plain SEM", plain, Options{SEM: true, Profile: fast}, 0},
		{"shards auto-detected IM", sharded, Options{}, 4},
		{"shards pinned SEM", sharded, Options{SEM: true, Profile: fast, Shards: 4}, 4},
	} {
		m, err := Files(tc.path, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m.Shards != tc.shards {
			t.Errorf("%s: shards = %d, want %d", tc.name, m.Shards, tc.shards)
		}
		// A semi-external mount reads its files for as long as it lives; a
		// decoded one holds no descriptor.
		open := 0
		if tc.opt.SEM {
			open = max(tc.shards, 1)
		}
		if len(m.files) != open {
			t.Errorf("%s: mount holds %d open files, want %d", tc.name, len(m.files), open)
		}
		cfg := m.Engine
		cfg.Workers = 8
		got, err := core.BFS[uint32](m.Adj, src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for v := range want {
			if got.Level[v] != want[v] {
				t.Fatalf("%s: level[%d] = %d, want %d", tc.name, v, got.Level[v], want[v])
			}
		}
		if err := m.Close(); err != nil {
			t.Errorf("%s: close: %v", tc.name, err)
		}
	}
	for _, opt := range []Options{{Shards: 2}, {SEM: true, Profile: fast, Shards: 2}} {
		if _, err := Files(sharded, opt); !errors.Is(err, sem.ErrShardSpec) {
			t.Errorf("2 of 4 shards (sem=%v): err = %v, want ErrShardSpec", opt.SEM, err)
		}
	}
	if _, err := Files(filepath.Join(dir, "missing.asg"), Options{}); err == nil {
		t.Error("a missing file mounted")
	}
}

// TestWriteTable holds the one shard-set writer to the bytes sem.Write
// produces when called by hand, image for image, on disk and in memory, for
// every format it can select; and pins the flag block that selects them.
func TestWriteTable(t *testing.T) {
	g, _ := testGraph(t)
	// The same graph made undirected: the CSR knows, and its files carry the
	// symmetric flag whether or not an in-edge section was asked for.
	ub := graph.NewBuilder[uint32](g.NumVertices(), true)
	g.ForEachEdge(ub.AddEdge)
	ub.Symmetrize()
	ug, err := ub.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, compress := range []bool{false, true} {
		for _, in := range []struct {
			name    string
			g       *graph.CSR[uint32]
			inEdges bool
			cfg     sem.WriteConfig
		}{
			{"plain", g, false, sem.WriteConfig{}},
			{"undirected", ug, false, sem.WriteConfig{Symmetric: true}},
			{"in-edges", g, true, sem.WriteConfig{InEdges: true}},
			{"undirected, in-edges asked for", ug, true, sem.WriteConfig{Symmetric: true}},
		} {
			g := in.g
			for _, shards := range []int{1, 3} {
				opt := WriteOptions{Compress: compress, Shards: shards, InEdges: in.inEdges}
				name := fmt.Sprintf("compress=%v %s x%d", compress, in.name, shards)
				in.cfg.Compress = compress
				want := images(t, g, in.cfg, shards)

				backings, err := WriteBackings(g, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(backings) != len(want) {
					t.Fatalf("%s: %d images in memory, want %d", name, len(backings), len(want))
				}
				for k, b := range backings {
					if !bytes.Equal(b.(*ssd.MemBacking).Data, want[k]) {
						t.Errorf("%s: in-memory image %d differs from sem.Write's", name, k)
					}
				}

				base := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".asg")
				if err := WriteFiles(base, g, opt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for k := range want {
					path := base
					if shards > 1 {
						path = sem.ShardFileName(base, k)
					}
					got, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(got, want[k]) {
						t.Errorf("%s: file %s differs from sem.Write's", name, filepath.Base(path))
					}
				}
			}
		}
	}
	if got := (WriteOptions{Compress: true, InEdges: true}).Format(false); got != "compressed+inedges" {
		t.Errorf("format = %q", got)
	}
	if got := (WriteOptions{InEdges: true}).Format(true); got != "raw+symmetric" {
		t.Errorf("format of a symmetric graph = %q", got)
	}
	if got := (WriteOptions{InEdges: true, Shards: 3}).Files("g.asg"); got != "g.asg.shard0..2" {
		t.Errorf("shard-set name = %q", got)
	}
	if err := WriteFiles(filepath.Join(dir, "missing", "g.asg"), g, WriteOptions{}); err == nil {
		t.Error("a file in a missing directory was written")
	}

	// The flag block gengraph and convert share is exactly these three.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	get := BindWrite(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != "compress shards symmetric" {
		t.Errorf("BindWrite registered %q, want exactly -compress -shards -symmetric", got)
	}
	if def, err := get(); err != nil || def != (WriteOptions{Shards: 1}) {
		t.Errorf("defaults = %+v, %v", def, err)
	}
	if err := fs.Parse([]string{"-compress", "-symmetric", "-shards", "0"}); err != nil {
		t.Fatal(err)
	}
	if got, err := get(); err == nil || err.Error() != "-shards must be >= 1, got 0" || !got.Compress || !got.InEdges {
		t.Errorf("-compress -symmetric -shards 0: %+v, err = %v", got, err)
	}
}

// TestOptionLedger pins the number of independently settable mount options, so
// the next one is added on purpose.
func TestOptionLedger(t *testing.T) {
	if n := reflect.TypeOf(Options{}).NumField(); n != 7 {
		t.Errorf("mount.Options has %d fields, the ledger says 7", n)
	}
}
