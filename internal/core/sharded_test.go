package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// shardedMount is one sharded SEM mirror of a CSR, with per-member devices
// exposed so tests can assert the pop-window fan-out reached every shard.
type shardedMount struct {
	adj  *graph.Sharded[uint32]
	devs []*ssd.Device
	sgs  []*sem.Graph[uint32]
}

// shardedSemMirror writes g as a `shards`-way partition, each shard on its own
// simulated flash device with prefetching enabled, and mounts the set.
func shardedSemMirror(t testing.TB, g *graph.CSR[uint32], shards int, compressed bool) *shardedMount {
	t.Helper()
	m := &shardedMount{
		devs: make([]*ssd.Device, shards),
		sgs:  make([]*sem.Graph[uint32], shards),
	}
	for k := 0; k < shards; k++ {
		var buf bytes.Buffer
		cfg := sem.WriteConfig{Compress: compressed, Shard: &sem.ShardConfig{Shard: k, Shards: shards}}
		if err := sem.Write(&buf, g, cfg); err != nil {
			t.Fatal(err)
		}
		m.devs[k] = ssd.New(
			ssd.Profile{Name: "fast", Channels: 64, ReadLatency: time.Nanosecond},
			&ssd.MemBacking{Data: buf.Bytes()},
		)
		var err error
		if m.sgs[k], err = sem.Open[uint32](m.devs[k]); err != nil {
			t.Fatal(err)
		}
		m.sgs[k].EnablePrefetch(sem.PrefetchConfig{})
	}
	adj, err := sem.MountShards(m.sgs)
	if err != nil {
		t.Fatal(err)
	}
	m.adj = adj
	return m
}

// TestKernelShardedSEMMatchesSerialBaselines is the sharded storage contract:
// the one traversal kernel over a 1-, 2-, or 4-shard SEM mount — raw v1 or
// compressed v2 members — must produce labels identical to the serial
// baselines (and hence to the single-store mounts the existing tests pin).
// For multi-shard prefetching runs it also checks the acceptance criterion
// that windows fan out: every member device services reads and every member
// prefetcher issues spans.
func TestKernelShardedSEMMatchesSerialBaselines(t *testing.T) {
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

	for _, compressed := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			name := fmt.Sprintf("shards=%d/compressed=%v", shards, compressed)
			t.Run(name, func(t *testing.T) {
				dm := shardedSemMirror(t, dg, shards, compressed)
				um := shardedSemMirror(t, ug, shards, compressed)
				cfg := Config{Workers: 8, SemiSort: true, Prefetch: 16}

				bfs, err := BFS[uint32](dm.adj, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantLevel {
					if bfs.Level[v] != wantLevel[v] {
						t.Fatalf("BFS level[%d] = %d, want %d", v, bfs.Level[v], wantLevel[v])
					}
				}
				sssp, err := SSSP[uint32](dm.adj, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantDist {
					if sssp.Dist[v] != wantDist[v] {
						t.Fatalf("SSSP dist[%d] = %d, want %d", v, sssp.Dist[v], wantDist[v])
					}
				}
				cc, err := CC[uint32](um.adj, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantID {
					if cc.ID[v] != wantID[v] {
						t.Fatalf("CC id[%d] = %d, want %d", v, cc.ID[v], wantID[v])
					}
				}

				if shards > 1 {
					for k, dev := range dm.devs {
						if dev.Stats().Reads == 0 {
							t.Fatalf("shard %d device serviced no reads; pop-window fan-out broken", k)
						}
						if dm.sgs[k].PrefetchStats().Spans == 0 {
							t.Fatalf("shard %d prefetcher issued no spans", k)
						}
					}
				}
			})
		}
	}
}
