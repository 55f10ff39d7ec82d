package graph

import (
	"math/rand"
	"testing"
)

// shardTestGraph builds a random weighted digraph for partition tests.
func shardTestGraph(t *testing.T, n uint64, m int, seed int64) *CSR[uint32] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge[uint32], 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge[uint32]{
			Src: uint32(rng.Intn(int(n))),
			Dst: uint32(rng.Intn(int(n))),
			W:   Weight(rng.Intn(100) + 1),
		})
	}
	return mustBuild(t, n, true, true, edges)
}

func TestShardOf(t *testing.T) {
	for v := uint64(0); v < 1000; v++ {
		if got := ShardOf(v, 1); got != 0 {
			t.Fatalf("ShardOf(%d, 1) = %d, want 0", v, got)
		}
		if got := ShardOf(v, 0); got != 0 {
			t.Fatalf("ShardOf(%d, 0) = %d, want 0", v, got)
		}
	}
	for _, shards := range []int{2, 3, 4, 7} {
		counts := make([]int, shards)
		for v := uint64(0); v < 4096; v++ {
			k := ShardOf(v, shards)
			if k < 0 || k >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", v, shards, k)
			}
			counts[k]++
		}
		// The Fibonacci hash should spread sequential ids near-uniformly; a
		// lopsided partition would defeat per-shard devices entirely.
		for k, c := range counts {
			if c < 4096/shards/2 || c > 4096/shards*2 {
				t.Fatalf("shards=%d: shard %d holds %d of 4096 vertices", shards, k, c)
			}
		}
	}
}

func TestShardOfIsStable(t *testing.T) {
	// The assignment is baked into shard files (shard-map hash id 1); these
	// pinned values guard against accidental hash changes orphaning them.
	want := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 3, 100: 0, 12345: 1}
	for v, k := range want {
		if got := ShardOf(v, 4); got != k {
			t.Fatalf("ShardOf(%d, 4) = %d, want %d", v, got, k)
		}
	}
}

func TestExtractShardErrors(t *testing.T) {
	g := shardTestGraph(t, 16, 40, 1)
	if _, err := ExtractShard(g, 0, 0); err == nil {
		t.Fatal("ExtractShard with shards=0 should fail")
	}
	if _, err := ExtractShard(g, -1, 2); err == nil {
		t.Fatal("ExtractShard with shard=-1 should fail")
	}
	if _, err := ExtractShard(g, 2, 2); err == nil {
		t.Fatal("ExtractShard with shard==shards should fail")
	}
}

func TestExtractShardPartitionsAdjacency(t *testing.T) {
	g := shardTestGraph(t, 200, 1200, 7)
	for _, shards := range []int{1, 2, 4} {
		subs := make([]*CSR[uint32], shards)
		var total uint64
		for k := range subs {
			sub, err := ExtractShard(g, k, shards)
			if err != nil {
				t.Fatalf("ExtractShard(%d, %d): %v", k, shards, err)
			}
			if sub.NumVertices() != g.NumVertices() {
				t.Fatalf("shard %d/%d: n = %d, want %d", k, shards, sub.NumVertices(), g.NumVertices())
			}
			subs[k] = sub
			total += sub.NumEdges()
		}
		if total != g.NumEdges() {
			t.Fatalf("shards=%d: member edges sum to %d, want %d", shards, total, g.NumEdges())
		}
		for v := uint64(0); v < g.NumVertices(); v++ {
			owner := ShardOf(v, shards)
			wantTs, wantWs, _ := g.Neighbors(uint32(v), nil)
			for k, sub := range subs {
				ts, ws, err := sub.Neighbors(uint32(v), nil)
				if err != nil {
					t.Fatalf("shard %d Neighbors(%d): %v", k, v, err)
				}
				if k != owner {
					if len(ts) != 0 {
						t.Fatalf("shard %d holds %d edges of vertex %d owned by shard %d", k, len(ts), v, owner)
					}
					continue
				}
				if len(ts) != len(wantTs) {
					t.Fatalf("owner shard %d: degree(%d) = %d, want %d", k, v, len(ts), len(wantTs))
				}
				for i := range ts {
					if ts[i] != wantTs[i] || ws[i] != wantWs[i] {
						t.Fatalf("owner shard %d: edge %d of vertex %d = (%d, %v), want (%d, %v)",
							k, i, v, ts[i], ws[i], wantTs[i], wantWs[i])
					}
				}
			}
		}
	}
}

func TestNewShardedValidation(t *testing.T) {
	g := shardTestGraph(t, 32, 100, 3)
	small := shardTestGraph(t, 16, 30, 3)
	if _, err := NewSharded[uint32](nil); err == nil {
		t.Fatal("NewSharded(nil) should fail")
	}
	if _, err := NewSharded([]Adjacency[uint32]{g, nil}); err == nil {
		t.Fatal("NewSharded with a nil member should fail")
	}
	if _, err := NewSharded([]Adjacency[uint32]{g, small}); err == nil {
		t.Fatal("NewSharded with mismatched vertex counts should fail")
	}
}

func TestShardedRouterMatchesCSR(t *testing.T) {
	g := shardTestGraph(t, 300, 2000, 11)
	for _, shards := range []int{1, 2, 4} {
		members := make([]Adjacency[uint32], shards)
		for k := range members {
			sub, err := ExtractShard(g, k, shards)
			if err != nil {
				t.Fatalf("ExtractShard: %v", err)
			}
			members[k] = sub
		}
		s, err := NewSharded(members)
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		if len(s.members) != shards {
			t.Fatalf("router holds %d members, want %d", len(s.members), shards)
		}
		if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
			t.Fatalf("shards=%d: n=%d m=%d, want n=%d m=%d",
				shards, s.NumVertices(), s.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		if !s.Weighted() {
			t.Fatalf("shards=%d: Weighted() = false for a weighted graph", shards)
		}
		scratch := &Scratch[uint32]{}
		window := make([]uint32, 0, 8)
		for v := uint64(0); v < g.NumVertices(); v++ {
			window = append(window, uint32(v))
			if len(window) == cap(window) {
				s.NeighborsBatch(window, scratch)
				window = window[:0]
			}
			if d, want := s.Degree(uint32(v)), g.Degree(uint32(v)); d != want {
				t.Fatalf("shards=%d: Degree(%d) = %d, want %d", shards, v, d, want)
			}
			ts, ws, err := s.Neighbors(uint32(v), scratch)
			if err != nil {
				t.Fatalf("shards=%d: Neighbors(%d): %v", shards, v, err)
			}
			wantTs, wantWs, _ := g.Neighbors(uint32(v), nil)
			if len(ts) != len(wantTs) {
				t.Fatalf("shards=%d: Neighbors(%d) has %d targets, want %d", shards, v, len(ts), len(wantTs))
			}
			for i := range ts {
				if ts[i] != wantTs[i] || ws[i] != wantWs[i] {
					t.Fatalf("shards=%d: edge %d of vertex %d differs", shards, i, v)
				}
			}
		}
	}
}

func TestShardedNilScratch(t *testing.T) {
	g := shardTestGraph(t, 50, 200, 5)
	members := make([]Adjacency[uint32], 2)
	for k := range members {
		sub, err := ExtractShard(g, k, 2)
		if err != nil {
			t.Fatalf("ExtractShard: %v", err)
		}
		members[k] = sub
	}
	s, err := NewSharded(members)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	s.NeighborsBatch([]uint32{1, 2, 3}, nil) // must be a safe no-op
	ts, _, err := s.Neighbors(3, nil)
	wantTs, _, _ := g.Neighbors(3, nil)
	if err != nil || len(ts) != len(wantTs) {
		t.Fatalf("Neighbors with nil scratch: %v (got %d targets, want %d)", err, len(ts), len(wantTs))
	}
}

// TestShardedHotPathNoAllocs pins the acceptance criterion that routing adds
// no per-edge (or even per-visit) allocation: once a worker's shard scratch
// is warm, Degree/Neighbors/NeighborsBatch through the router are
// allocation-free.
func TestShardedHotPathNoAllocs(t *testing.T) {
	g := shardTestGraph(t, 256, 2000, 13)
	members := make([]Adjacency[uint32], 4)
	for k := range members {
		sub, err := ExtractShard(g, k, 4)
		if err != nil {
			t.Fatalf("ExtractShard: %v", err)
		}
		members[k] = sub
	}
	s, err := NewSharded(members)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	scratch := &Scratch[uint32]{}
	window := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	s.NeighborsBatch(window, scratch) // warm: builds the shard scratch + groups
	allocs := testing.AllocsPerRun(100, func() {
		s.NeighborsBatch(window, scratch)
		for _, v := range window {
			s.Degree(v)
			if _, _, err := s.Neighbors(v, scratch); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f times per window, want 0", allocs)
	}
}
