package graph

import "fmt"

// This file is the graph-layer shard router: one logical graph hash-partitioned
// across N member stores, each member owning the adjacency of the vertices the
// shard hash assigns to it. It lifts the engine's ownership-hash idea
// (a Fibonacci hash routes a vertex to its owning worker) to the storage layer —
// the same multiplicative hash routes a vertex to its owning store — so a
// graph that outgrows one flash device composes several, FlashGraph-style.
// Each member keeps its own device, block cache, and prefetcher; the router
// only decides which member answers for which vertex and fans pop-windows out
// per shard.

// shardHashMul is the Fibonacci multiplicative constant, the same mixing
// multiplier the engine's owner routing uses for workers. It is part of the
// on-disk shard contract: shard files record which hash partitioned them
// (sem's shard-map header), and changing this constant would orphan every
// sharded graph already written.
const shardHashMul = 0x9E3779B97F4A7C15

// ShardOf maps a vertex id to its owning shard in a `shards`-way partition.
// The assignment is baked into shard files at write time, so this function is
// versioned by the shard-map header's hash id and must never change for
// hash id 1.
func ShardOf(v uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int((v * shardHashMul) % uint64(shards))
}

// ExtractShard returns the sub-CSR holding exactly the adjacency owned by
// `shard` in a `shards`-way partition of g: the full vertex-id space is
// preserved and non-owned vertices simply have degree 0, so per-shard offsets
// index the same ids as the logical graph and no id translation ever happens
// on the traversal path.
func ExtractShard[V Vertex](g *CSR[V], shard, shards int) (*CSR[V], error) {
	if shards < 1 {
		return nil, fmt.Errorf("graph: shard count must be >= 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("graph: shard %d out of range for %d shards", shard, shards)
	}
	n := g.NumVertices()
	offsets := make([]uint64, n+1)
	var m uint64
	for v := uint64(0); v < n; v++ {
		if ShardOf(v, shards) == shard {
			m += uint64(g.Degree(V(v)))
		}
		offsets[v+1] = m
	}
	targets := make([]V, m)
	var weights []Weight
	if g.Weighted() {
		weights = make([]Weight, m)
	}
	for v := uint64(0); v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if lo == hi {
			continue
		}
		glo, ghi := g.offsets[v], g.offsets[v+1]
		copy(targets[lo:hi], g.targets[glo:ghi])
		if weights != nil {
			copy(weights[lo:hi], g.weights[glo:ghi])
		}
	}
	return NewCSRRaw(offsets, targets, weights)
}

// Sharded composes N member adjacencies into one logical graph: vertex v's
// neighbors come from member ShardOf(v, N). It implements Adjacency and
// BatchAdjacency, so the one traversal kernel runs over a sharded mount
// unchanged; NeighborsBatch partitions a worker's pop-window by owning shard
// and hands each member its group, so every shard's prefetcher coalesces and
// issues spans against its own device concurrently.
//
// Sharded itself is stateless beyond the member list — all per-worker state
// (per-shard sub-scratches, window groups) lives in the caller's Scratch — so
// one router is safely shared by any number of traversal workers and queries.
type Sharded[V Vertex] struct {
	members []Adjacency[V]
	// batch[k] is members[k]'s BatchAdjacency side, nil when the member
	// cannot service windows (then its group's reads stay synchronous).
	batch []BatchAdjacency[V]
	n     uint64
}

// NewSharded builds the router over members, which must all present the same
// vertex-id space. Member k must hold the adjacency of exactly the vertices
// with ShardOf(v, len(members)) == k (zero degree elsewhere); sem.MountShards
// validates that contract from the shard-map headers before calling this.
func NewSharded[V Vertex](members []Adjacency[V]) (*Sharded[V], error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("graph: sharded mount needs at least one member")
	}
	s := &Sharded[V]{
		members: members,
		batch:   make([]BatchAdjacency[V], len(members)),
		n:       members[0].NumVertices(),
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("graph: sharded member %d is nil", i)
		}
		if nv := m.NumVertices(); nv != s.n {
			return nil, fmt.Errorf("graph: sharded member %d has %d vertices, member 0 has %d", i, nv, s.n)
		}
		s.batch[i], _ = m.(BatchAdjacency[V])
	}
	return s, nil
}

// NumVertices implements Adjacency.
func (s *Sharded[V]) NumVertices() uint64 { return s.n }

// NumEdges sums the member edge counts: the logical graph's edge total.
func (s *Sharded[V]) NumEdges() uint64 {
	var m uint64
	for _, mem := range s.members {
		if ne, ok := mem.(interface{ NumEdges() uint64 }); ok {
			m += ne.NumEdges()
		}
	}
	return m
}

// Weighted reports whether the members carry edge weights (uniform across
// shards; validated at mount time).
func (s *Sharded[V]) Weighted() bool {
	if w, ok := s.members[0].(interface{ Weighted() bool }); ok {
		return w.Weighted()
	}
	return false
}

// Degree implements Adjacency by asking v's owning shard; every other member
// reports 0 for v by construction.
//
//lint:hotpath
func (s *Sharded[V]) Degree(v V) int {
	return s.members[ShardOf(uint64(v), len(s.members))].Degree(v)
}

// shardScratch is the router's per-worker state, stored in Scratch.Prefetch:
// one sub-scratch per member (so each shard's decode buffers and prefetch
// session stay isolated — two members must never share a session) and the
// reusable window groups of NeighborsBatch.
type shardScratch[V Vertex] struct {
	subs   []*Scratch[V]
	groups [][]V
}

// state returns the worker's shard scratch, building it on first use with
// this router (or when the scratch last served a mount of different width).
func (s *Sharded[V]) state(scratch *Scratch[V]) *shardScratch[V] {
	ss, ok := scratch.Prefetch.(*shardScratch[V])
	if !ok || len(ss.subs) != len(s.members) {
		ss = &shardScratch[V]{
			subs:   make([]*Scratch[V], len(s.members)),
			groups: make([][]V, len(s.members)),
		}
		for i := range ss.subs {
			ss.subs[i] = &Scratch[V]{}
		}
		scratch.Prefetch = ss
	}
	return ss
}

// Neighbors implements Adjacency: route to v's owning member with that
// member's sub-scratch, so a prefetched span started by NeighborsBatch on the
// same scratch is consumed without copying. The returned slices live in the
// member's sub-scratch and are valid until the next call for a vertex of the
// same shard on the same scratch.
//
//lint:hotpath
func (s *Sharded[V]) Neighbors(v V, scratch *Scratch[V]) ([]V, []Weight, error) {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	k := ShardOf(uint64(v), len(s.members))
	return s.members[k].Neighbors(v, s.state(scratch).subs[k])
}

// NeighborsBatch implements BatchAdjacency: group the pop-window by owning
// shard, then announce each group to its member so per-shard extents coalesce
// among themselves (extents of different shards live in different files and
// could never merge) and every shard's device starts reading concurrently.
func (s *Sharded[V]) NeighborsBatch(vs []V, scratch *Scratch[V]) {
	if scratch == nil {
		return // nothing could ever consume the prefetched reads
	}
	ss := s.state(scratch)
	for i := range ss.groups {
		ss.groups[i] = ss.groups[i][:0]
	}
	for _, v := range vs {
		k := ShardOf(uint64(v), len(s.members))
		ss.groups[k] = append(ss.groups[k], v)
	}
	for k, b := range s.batch {
		if b != nil && len(ss.groups[k]) > 0 {
			b.NeighborsBatch(ss.groups[k], ss.subs[k])
		}
	}
}

// shardSettler routes settle notifications to each vertex's owning member's
// sink; members without an active state policy have a nil slot and their
// vertices' events are dropped (nothing would consume them).
type shardSettler struct {
	sinks []Settler
}

//lint:hotpath
func (s *shardSettler) VertexQueued(v uint64) {
	if sink := s.sinks[ShardOf(v, len(s.sinks))]; sink != nil {
		sink.VertexQueued(v)
	}
}

//lint:hotpath
func (s *shardSettler) VertexSettled(v uint64) {
	if sink := s.sinks[ShardOf(v, len(s.sinks))]; sink != nil {
		sink.VertexSettled(v)
	}
}

// SettleSink implements SettleProvider by composing the members' sinks into
// one ShardOf router. Nil — no engine notification overhead — unless at
// least one member is actively consuming settle events.
func (s *Sharded[V]) SettleSink() Settler {
	sinks := make([]Settler, len(s.members))
	any := false
	for i, m := range s.members {
		if sp, ok := m.(SettleProvider); ok {
			if sinks[i] = sp.SettleSink(); sinks[i] != nil {
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return &shardSettler{sinks: sinks}
}

// HasInEdges reports whether every member can serve reverse adjacency, the
// router's dynamic side of the InAdjacency capability: shard writers store a
// vertex's in-edges on its owning member (the transpose is hash-partitioned
// by destination, same as the forward adjacency by source), so the partition
// is direction-capable only when every file carries its in-edge section.
func (s *Sharded[V]) HasInEdges() bool {
	for _, m := range s.members {
		if _, ok := InEdges(m); !ok {
			return false
		}
	}
	return true
}

// Symmetric reports whether every member says its graph is its own transpose
// (a symmetric shard set routes in-reads to the owner's out-lists).
func (s *Sharded[V]) Symmetric() bool {
	for _, m := range s.members {
		if sym, ok := m.(interface{ Symmetric() bool }); !ok || !sym.Symmetric() {
			return false
		}
	}
	return true
}

// InDegree implements InAdjacency by asking v's owning shard.
//
//lint:hotpath
func (s *Sharded[V]) InDegree(v V) int {
	k := ShardOf(uint64(v), len(s.members))
	return s.members[k].(InAdjacency[V]).InDegree(v)
}

// InNeighbors implements InAdjacency: route to v's owning member with that
// member's sub-scratch, exactly like Neighbors.
//
//lint:hotpath
func (s *Sharded[V]) InNeighbors(v V, scratch *Scratch[V]) ([]V, error) {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	k := ShardOf(uint64(v), len(s.members))
	return s.members[k].(InAdjacency[V]).InNeighbors(v, s.state(scratch).subs[k])
}

// ScanInEdges implements InScanner by handing the range to every member:
// each member holds the in-adjacency of exactly its owned vertices (zero
// in-degree elsewhere), so the per-member scans partition the range's
// in-edges and each stays sequential within its own store. Members without
// bulk scan support fall back to per-vertex InNeighbors over their owned
// ids.
func (s *Sharded[V]) ScanInEdges(lo, hi V, need func(V) bool, visit func(v V, in []V) error, scratch *Scratch[V]) error {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	ss := s.state(scratch)
	for k, m := range s.members {
		if sc, ok := m.(InScanner[V]); ok {
			if err := sc.ScanInEdges(lo, hi, need, visit, ss.subs[k]); err != nil {
				return err
			}
			continue
		}
		ia := m.(InAdjacency[V])
		for v := lo; v < hi; v++ {
			if ShardOf(uint64(v), len(s.members)) != k || !need(v) || ia.InDegree(v) == 0 {
				continue
			}
			in, err := ia.InNeighbors(v, ss.subs[k])
			if err != nil {
				return err
			}
			if err := visit(v, in); err != nil {
				return err
			}
		}
	}
	return nil
}

var (
	_ BatchAdjacency[uint32] = (*Sharded[uint32])(nil)
	_ InScanner[uint32]      = (*Sharded[uint32])(nil)
	_ SettleProvider         = (*Sharded[uint32])(nil)
)
