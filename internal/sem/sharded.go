package sem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/graph"
)

// This file is the storage side of the shard router: one logical graph
// hash-partitioned over N stores, each written as a complete ASG file over
// the full vertex-id space (non-owned vertices have degree 0) plus a shard
// map recording its place in the partition. Keeping the full id space in
// every shard means per-shard offsets index logical vertex ids directly — no
// id translation on the traversal path — at the cost of (n+1-n/N) index
// entries of RAM per extra shard, which is the paper's RAM-resident vertex
// information and cheap by construction.
//
// Shard map layout (shardMapSize bytes, little-endian, after the header):
//
//	[0:4]   shard      uint32 -- this file's index in the partition
//	[4:8]   shards     uint32 -- partition width
//	[8:16]  totalEdges uint64 -- edge count of the LOGICAL graph (header m
//	                             counts only this shard's records)
//	[16:20] hashID     uint32 -- partitioning hash (1 = Fibonacci)
//	[20:24] reserved   uint32
//
// The v1/v2 distinction is orthogonal: a shard map can precede either body,
// and a mount may even mix formats across members (each member decodes its
// own extents).

// shardMapSize is the byte length of the shard map block.
const shardMapSize = 24

// shardHashFib identifies the Fibonacci multiplicative hash (graph.ShardOf)
// in the shard map's hash field. New hash ids may be added; readers reject
// ids they do not implement rather than silently mis-routing vertices.
const shardHashFib = 1

// ErrShardSpec marks shard-spec inconsistencies: a file list that does not
// assemble into one coherent partition (wrong count, wrong order, mixed
// graphs) or a shard map contradicting itself. Front ends map it to usage
// errors (exit 2 / HTTP 400) because the fix is the invocation, not the data.
var ErrShardSpec = errors.New("shard spec inconsistent")

type shardMap struct {
	shard      uint32
	shards     uint32
	totalEdges uint64
	hashID     uint32
}

func (sm *shardMap) encode() []byte {
	raw := make([]byte, shardMapSize)
	binary.LittleEndian.PutUint32(raw[0:], sm.shard)
	binary.LittleEndian.PutUint32(raw[4:], sm.shards)
	binary.LittleEndian.PutUint64(raw[8:], sm.totalEdges)
	binary.LittleEndian.PutUint32(raw[16:], sm.hashID)
	// raw[20:24] reserved.
	return raw
}

func parseShardMap(raw []byte) (shardMap, error) {
	sm := shardMap{
		shard:      binary.LittleEndian.Uint32(raw[0:]),
		shards:     binary.LittleEndian.Uint32(raw[4:]),
		totalEdges: binary.LittleEndian.Uint64(raw[8:]),
		hashID:     binary.LittleEndian.Uint32(raw[16:]),
	}
	if sm.shards < 1 {
		return sm, fmt.Errorf("sem: %w: shard map claims %d shards", ErrShardSpec, sm.shards)
	}
	if sm.shard >= sm.shards {
		return sm, fmt.Errorf("sem: %w: shard %d out of range for %d shards", ErrShardSpec, sm.shard, sm.shards)
	}
	if sm.hashID != shardHashFib {
		return sm, fmt.Errorf("sem: %w: unknown shard hash id %d (have %d)", ErrShardSpec, sm.hashID, shardHashFib)
	}
	return sm, nil
}

// ShardConfig selects one shard of a hash partition for the shard writers.
type ShardConfig struct {
	// Shard is the index of the shard to write, in [0, Shards).
	Shard int
	// Shards is the partition width; 0 normalizes to 1 (a single "shard"
	// holding the whole graph, still stamped with a shard map).
	Shards int
}

func (c *ShardConfig) normalize() {
	if c.Shards == 0 {
		c.Shards = 1
	}
}

// Validate rejects configs that name no writable shard.
func (c ShardConfig) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("sem: %w: shard count must be >= 1, got %d", ErrShardSpec, c.Shards)
	}
	if c.Shard < 0 || c.Shard >= c.Shards {
		return fmt.Errorf("sem: %w: shard %d out of range for %d shards", ErrShardSpec, c.Shard, c.Shards)
	}
	return nil
}

// ShardFileName names shard k of a sharded graph written under base:
// "base.shard0", "base.shard1", ... — the layout gengraph/convert emit and
// traverse/serve discover.
func ShardFileName(base string, shard int) string {
	return fmt.Sprintf("%s.shard%d", base, shard)
}

// ShardPaths resolves a graph path and a requested shard count into the
// concrete file list: shards==0 auto-detects (a plain file mounts as is,
// otherwise path.shard0.. are discovered); shards>=1 demands exactly that
// many shard files. sharded reports whether the result is a shard set.
func ShardPaths(path string, shards int) (paths []string, sharded bool, err error) {
	if shards == 0 {
		if _, err := os.Stat(path); err == nil {
			return []string{path}, false, nil
		}
		for k := 0; ; k++ {
			p := ShardFileName(path, k)
			if _, err := os.Stat(p); err != nil {
				break
			}
			paths = append(paths, p)
		}
		if len(paths) == 0 {
			return nil, false, fmt.Errorf("neither %s nor %s exists", path, ShardFileName(path, 0))
		}
		return paths, true, nil
	}
	paths = make([]string, shards)
	for k := range paths {
		paths[k] = ShardFileName(path, k)
		if _, err := os.Stat(paths[k]); err != nil {
			return nil, false, fmt.Errorf("%w: %d shards requested but shard file missing: %v", ErrShardSpec, shards, err)
		}
	}
	return paths, true, nil
}

// validateShardSet checks that gs assembles into one coherent partition:
// every member sharded, in shard order, agreeing on width, vertex count,
// weightedness, and the logical edge total, with per-shard record counts
// summing to that total. As a convenience a single plain (unsharded) file
// passes — it is exactly the 1-way partition. All failures wrap ErrShardSpec.
func validateShardSet[V graph.Vertex](gs []*Graph[V]) error {
	if len(gs) == 0 {
		return fmt.Errorf("sem: %w: no shard files", ErrShardSpec)
	}
	if len(gs) == 1 && !gs[0].Sharded() {
		return nil
	}
	var sum uint64
	for i, g := range gs {
		if !g.Sharded() {
			return fmt.Errorf("sem: %w: file %d of %d carries no shard map", ErrShardSpec, i, len(gs))
		}
		if g.Shards() != len(gs) {
			return fmt.Errorf("sem: %w: file %d is part of a %d-shard graph, %d files given",
				ErrShardSpec, i, g.Shards(), len(gs))
		}
		if g.Shard() != i {
			return fmt.Errorf("sem: %w: file %d holds shard %d (files must be listed in shard order)",
				ErrShardSpec, i, g.Shard())
		}
		if g.NumVertices() != gs[0].NumVertices() {
			return fmt.Errorf("sem: %w: shard %d has %d vertices, shard 0 has %d",
				ErrShardSpec, i, g.NumVertices(), gs[0].NumVertices())
		}
		if g.Weighted() != gs[0].Weighted() {
			return fmt.Errorf("sem: %w: shard %d weighted=%v, shard 0 weighted=%v",
				ErrShardSpec, i, g.Weighted(), gs[0].Weighted())
		}
		if g.TotalEdges() != gs[0].TotalEdges() {
			return fmt.Errorf("sem: %w: shard %d claims %d total edges, shard 0 claims %d",
				ErrShardSpec, i, g.TotalEdges(), gs[0].TotalEdges())
		}
		sum += g.NumEdges()
	}
	if sum != gs[0].TotalEdges() {
		return fmt.Errorf("sem: %w: shards hold %d edges, shard map claims %d",
			ErrShardSpec, sum, gs[0].TotalEdges())
	}
	return nil
}

// MountShards assembles opened shard files into the logical graph's shard
// router. gs must be in shard order and form a complete partition (checked
// from the shard maps; failures wrap ErrShardSpec). Members may mix v1 and
// v2 formats — each decodes its own extents. Enable prefetching per member
// (EnablePrefetch on each g) before or after mounting; windows fan out to
// whichever members have it.
func MountShards[V graph.Vertex](gs []*Graph[V]) (*graph.Sharded[V], error) {
	if err := validateShardSet(gs); err != nil {
		return nil, err
	}
	members := make([]graph.Adjacency[V], len(gs))
	for i, g := range gs {
		members[i] = g
	}
	return graph.NewSharded(members)
}

// LoadShardedCSR reads a complete shard set back into one in-memory CSR, the
// IM mount of a sharded graph. Stores must be in shard order.
func LoadShardedCSR[V graph.Vertex](stores []Store) (*graph.CSR[V], error) {
	gs := make([]*Graph[V], len(stores))
	for i, st := range stores {
		g, err := Open[V](st)
		if err != nil {
			return nil, fmt.Errorf("sem: open shard %d: %w", i, err)
		}
		gs[i] = g
	}
	if err := validateShardSet(gs); err != nil {
		return nil, err
	}
	subs := make([]*graph.CSR[V], len(stores))
	symmetric := true // the merged graph is, when every member's header says so
	for i, st := range stores {
		sub, err := LoadCSR[V](st)
		if err != nil {
			return nil, fmt.Errorf("sem: load shard %d: %w", i, err)
		}
		subs[i] = sub
		symmetric = symmetric && gs[i].symmetric
	}
	n := subs[0].NumVertices()
	offsets := make([]uint64, n+1)
	var m uint64
	for v := uint64(0); v < n; v++ {
		m += uint64(subs[graph.ShardOf(v, len(subs))].Degree(V(v)))
		offsets[v+1] = m
	}
	targets := make([]V, m)
	var weights []graph.Weight
	if subs[0].Weighted() {
		weights = make([]graph.Weight, m)
	}
	for v := uint64(0); v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if lo == hi {
			continue
		}
		sub := subs[graph.ShardOf(v, len(subs))]
		slo, shi := sub.Offsets()[v], sub.Offsets()[v+1]
		copy(targets[lo:hi], sub.Targets()[slo:shi])
		if weights != nil {
			copy(weights[lo:hi], sub.WeightsRaw()[slo:shi])
		}
	}
	return graph.NewLoadedCSR(symmetric, offsets, targets, weights)
}
