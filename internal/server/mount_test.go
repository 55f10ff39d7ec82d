package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mount"
	"repro/internal/sem"
)

// TestMountGraph checks the translation from a -graph spec to a server.Graph:
// the storage stack itself is internal/mount's and is tested there.
func TestMountGraph(t *testing.T) {
	g, err := gen.RMAT[uint32](8, 8, gen.RMATA, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain, sharded := filepath.Join(dir, "g.asg"), filepath.Join(dir, "s.asg")
	if err := mount.WriteFiles(plain, g, mount.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := mount.WriteFiles(sharded, g, mount.WriteOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}

	im, err := MountGraph(MountSpec{Name: "im", Path: plain}, MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if im.Storage != "im" || im.Adj == nil || im.Mount == nil || im.Mount.CSR == nil || im.shards() != 0 {
		t.Errorf("in-memory mount: %+v", im)
	}

	limit := &RateLimitConfig{Rate: 5}
	se, err := MountGraph(MountSpec{Name: "sem", Path: sharded, SEM: true, Profile: "Intel", Limit: limit}, MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if se.Storage != "sem" || se.shards() != 4 || se.Adj != se.Mount.Adj || len(se.Mount.IO().Shards) != 4 || se.RateLimit != limit {
		t.Errorf("sharded SEM mount: storage=%s shards=%d io=%+v", se.Storage, se.shards(), se.Mount.IO())
	}
	if se.Mount.Devices[0].Profile().Name != "Intel" {
		t.Errorf("spec profile not applied: %s", se.Mount.Devices[0].Profile().Name)
	}

	// A file that can answer "who points at v?" mounts as a capable graph,
	// whose pool runs under the thresholds its mount derived.
	capable := filepath.Join(dir, "c.asg")
	if err := mount.WriteFiles(capable, g, mount.WriteOptions{InEdges: true}); err != nil {
		t.Fatal(err)
	}
	hy, err := MountGraph(MountSpec{Name: "hy", Path: capable}, MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Engine: core.Config{Workers: 4}})
	if err := s.AddGraph(hy); err != nil {
		t.Fatalf("AddGraph of a capable in-memory mount: %v", err)
	}
	if cfg := s.graph("hy").pool.Config(); cfg.Direction != core.DirectionAuto || cfg.Alpha <= 0 || cfg.Alpha != hy.Mount.Engine.Alpha || cfg.Beta != hy.Mount.Engine.Beta || cfg.Workers != 4 {
		t.Errorf("capable mount runs under %+v, want its own thresholds at the server's 4 workers", cfg)
	}

	if _, err := MountGraph(MountSpec{Name: "x", Path: plain, SEM: true, Profile: "FloppyDisk"}, MountOptions{}); err == nil {
		t.Error("unknown profile mounted")
	}
	if _, err := MountGraph(MountSpec{Name: "x", Path: sharded, Shards: 3}, MountOptions{}); !errors.Is(err, sem.ErrShardSpec) {
		t.Errorf("3 of 4 shards: err = %v, want ErrShardSpec", err)
	}

}

// TestGraphLedger pins server.Graph's exported fields: what a served graph is
// made of lives in Mount, so a new field here is a conscious edit.
func TestGraphLedger(t *testing.T) {
	var names []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Graph{})) {
		if f.IsExported() {
			names = append(names, f.Name)
		}
	}
	if got := strings.Join(names, " "); got != "Name Adj Storage RateLimit Mount" {
		t.Errorf("server.Graph exports %q, want exactly Name Adj Storage RateLimit Mount", got)
	}
}

// TestMetricsGraphKeys pins the JSON the smoke jobs read: one server holding
// an in-memory, a cached semi-external and a 3-shard cached semi-external
// mount of one graph, all through MountGraph, renders exactly these keys per
// graphs.<name> entry (no prefetch block: a cached mount never windows), and
// the sharded entry's summed device counters are the sum of its per-shard
// ones.
func TestMetricsGraphKeys(t *testing.T) {
	g, err := gen.RMAT[uint32](8, 8, gen.RMATA, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain, sharded := filepath.Join(dir, "g.asg"), filepath.Join(dir, "s.asg")
	if err := mount.WriteFiles(plain, g, mount.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := mount.WriteFiles(sharded, g, mount.WriteOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{CacheEntries: -1, Engine: core.Config{Workers: 8}})
	for _, spec := range []MountSpec{
		{Name: "im", Path: plain},
		{Name: "sem", Path: plain, SEM: true, Profile: "FusionIO"},
		{Name: "sharded", Path: sharded, SEM: true, Profile: "FusionIO", Shards: 3},
	} {
		mg, err := MountGraph(spec, MountOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddGraph(mg); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, name := range []string{"im", "sem", "sharded"} {
		for _, kernel := range []string{"bfs", "sssp"} {
			if resp, body := postQuery(t, ts, queryRequest{Graph: name, Kernel: kernel, Source: 1}); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %d %s", name, kernel, resp.StatusCode, body)
			}
		}
	}

	graphs := fetchMetrics(t, ts)["graphs"].(map[string]any)
	keys := func(v any) string {
		var ks []string
		for k := range v.(map[string]any) {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	for name, want := range map[string]string{
		"im":      "storage",
		"sem":     "block_cache device storage",
		"sharded": "block_cache device shard_block_caches shard_devices shards storage",
	} {
		if got := keys(graphs[name]); got != want {
			t.Errorf("graphs.%s keys = %q, want %q", name, got, want)
		}
	}
	const deviceKeys = "bytes_read bytes_written max_read_bytes peak_reads reads writes"
	const cacheKeys = "blocks_fetched evictions hits inflight_hw inflight_waits misses pinned_hw"
	for _, name := range []string{"sem", "sharded"} {
		gv := graphs[name].(map[string]any)
		if got := keys(gv["device"]); got != deviceKeys {
			t.Errorf("graphs.%s.device keys = %q, want %q", name, got, deviceKeys)
		}
		if got := keys(gv["block_cache"]); got != cacheKeys {
			t.Errorf("graphs.%s.block_cache keys = %q, want %q", name, got, cacheKeys)
		}
		if hw := gv["block_cache"].(map[string]any)["pinned_hw"].(float64); hw <= 0 {
			t.Errorf("graphs.%s.block_cache.pinned_hw = %v: the mount did not feed its cache", name, hw)
		}
	}
	sh := graphs["sharded"].(map[string]any)
	if got := sh["shards"].(float64); got != 3 {
		t.Errorf("graphs.sharded.shards = %v, want 3", got)
	}
	perDev, perCache := sh["shard_devices"].([]any), sh["shard_block_caches"].([]any)
	if len(perDev) != 3 || len(perCache) != 3 {
		t.Fatalf("graphs.sharded: %d shard_devices, %d shard_block_caches, want 3 each", len(perDev), len(perCache))
	}
	for _, field := range []string{"reads", "bytes_read"} {
		var sum float64
		for _, d := range perDev {
			if got := keys(d); got != deviceKeys {
				t.Errorf("shard_devices entry keys = %q, want %q", got, deviceKeys)
			}
			sum += d.(map[string]any)[field].(float64)
		}
		if total := sh["device"].(map[string]any)[field].(float64); total == 0 || total != sum {
			t.Errorf("graphs.sharded.device.%s = %v, its shard_devices sum to %v", field, total, sum)
		}
	}
	for _, field := range []string{"hits", "misses"} {
		var sum float64
		for _, c := range perCache {
			if got := keys(c); got != "hits misses" {
				t.Errorf("shard_block_caches entry keys = %q, want hits and misses", got)
			}
			sum += c.(map[string]any)[field].(float64)
		}
		if total := sh["block_cache"].(map[string]any)[field].(float64); total != sum {
			t.Errorf("graphs.sharded.block_cache.%s = %v, its shard_block_caches sum to %v", field, total, sum)
		}
	}
}
