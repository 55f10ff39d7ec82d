package graph

import (
	"fmt"
	"slices"
)

// This file is the graph-layer shard router: one logical graph partitioned
// across N member stores by vertex id modulo N, so a graph that outgrows one
// flash device composes several, FlashGraph-style. Member k owns the vertices
// v = k, k+N, k+2N, ... and holds their adjacency, and only theirs, under
// local ids u = v / N: its index covers its own vertices, so N members hold
// one index between them, not N. Edge targets stay global ids. Each member
// keeps its own device, block cache, and prefetcher; the router decides which
// member answers for which vertex, translates the id, and fans sweeps out
// per shard.
//
// The modulo partition is part of the on-disk shard contract (sem's shard
// map records it as partition id 2); changing it would orphan every shard set
// already written.

// ShardOf maps a vertex id to its owning shard in a `shards`-way partition.
func ShardOf(v uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(v % uint64(shards))
}

// ShardSize is the number of vertices shard `shard` of a `shards`-way
// partition of n vertices owns.
func ShardSize(n uint64, shard, shards int) uint64 {
	return (n + uint64(shards-1-shard)) / uint64(shards)
}

// ExtractShard returns the sub-CSR holding exactly the adjacency owned by
// `shard` in a `shards`-way partition of g: row u is global vertex
// u*shards+shard, and targets keep their global ids.
func ExtractShard[V Vertex](g *CSR[V], shard, shards int) (*CSR[V], error) {
	if shards < 1 {
		return nil, fmt.Errorf("graph: shard count must be >= 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("graph: shard %d out of range for %d shards", shard, shards)
	}
	owned := ShardSize(g.NumVertices(), shard, shards)
	offsets := make([]uint64, 1, owned+1)
	targets := []V{}
	var weights []Weight
	if g.Weighted() {
		weights = []Weight{} // weighted even when the shard holds no edge
	}
	for u := uint64(0); u < owned; u++ {
		v := u*uint64(shards) + uint64(shard)
		lo, hi := g.offsets[v], g.offsets[v+1]
		targets = append(targets, g.targets[lo:hi]...)
		if weights != nil {
			weights = append(weights, g.weights[lo:hi]...)
		}
		offsets = append(offsets, uint64(len(targets)))
	}
	return NewCSRRaw(offsets, targets, weights)
}

// Sharded composes N member adjacencies into one logical graph: vertex v's
// neighbors are row v/N of member v%N. It implements Adjacency and
// BatchAdjacency, so the one traversal kernel runs over a sharded mount
// unchanged; Request partitions a worker's sweep by owning shard and hands
// each member its group, so every shard coalesces its own extents and reads
// its own device concurrently.
//
// Sharded itself is stateless beyond the member list — all per-worker state
// (per-shard sub-scratches, sweep groups) lives in the caller's Scratch — so
// one router is safely shared by any number of traversal workers and queries.
type Sharded[V Vertex] struct {
	members []Adjacency[V]
	// batch[k] is members[k]'s BatchAdjacency side, nil when the member
	// cannot service sweeps (then its group's reads stay synchronous).
	batch []BatchAdjacency[V]
	n     uint64
}

// NewSharded builds the router over members, member k holding the rows of
// exactly the vertices with ShardOf(v, len(members)) == k, in id order (what
// ExtractShard returns); the logical vertex count is the members' sum.
// sem.MountShards validates the rest of that contract from the shard-map
// headers before calling this.
func NewSharded[V Vertex](members []Adjacency[V]) (*Sharded[V], error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("graph: sharded mount needs at least one member")
	}
	s := &Sharded[V]{members: members, batch: make([]BatchAdjacency[V], len(members))}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("graph: sharded member %d is nil", i)
		}
		s.n += m.NumVertices()
		s.batch[i], _ = m.(BatchAdjacency[V])
	}
	for i, m := range members {
		if nv, want := m.NumVertices(), ShardSize(s.n, i, len(members)); nv != want {
			return nil, fmt.Errorf("graph: sharded member %d has %d vertices, a %d-vertex partition gives it %d", i, nv, s.n, want)
		}
	}
	return s, nil
}

// owner returns v's member and its row there.
//
//lint:hotpath
func (s *Sharded[V]) owner(v V) (int, V) {
	return ShardOf(uint64(v), len(s.members)), V(uint64(v) / uint64(len(s.members)))
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

// Degree implements Adjacency by asking v's owning shard.
//
//lint:hotpath
func (s *Sharded[V]) Degree(v V) int {
	k, u := s.owner(v)
	return s.members[k].Degree(u)
}

// shardScratch is the router's per-worker state, stored in Scratch.Prefetch:
// one sub-scratch per member (so each shard's decode buffers and Request
// buffers stay isolated — two members must never share them) and the
// reusable per-member groups of Request: the rows, their positions in the
// caller's sweep, and the reads and waits of those.
type shardScratch[V Vertex] struct {
	subs   []*Scratch[V]
	groups [][]V
	at     [][]int
	reads  [][]any
	waits  [][]<-chan struct{}
}

// state returns the worker's shard scratch, building it on first use with
// this router (or when the scratch last served a mount of different width).
func (s *Sharded[V]) state(scratch *Scratch[V]) *shardScratch[V] {
	ss, ok := scratch.Prefetch.(*shardScratch[V])
	if !ok || len(ss.subs) != len(s.members) {
		n := len(s.members)
		ss = &shardScratch[V]{
			subs:   make([]*Scratch[V], n),
			groups: make([][]V, n),
			at:     make([][]int, n),
			reads:  make([][]any, n),
			waits:  make([][]<-chan struct{}, n),
		}
		for i := range ss.subs {
			ss.subs[i] = &Scratch[V]{}
		}
		scratch.Prefetch = ss
	}
	return ss
}

// Neighbors implements Adjacency: route to v's owning member with that
// member's sub-scratch, handing down the read Request started for v, so the
// member decodes from it without reading again. The returned slices live in
// the member's sub-scratch and are valid until the next call for a vertex of
// the same shard on the same scratch.
//
//lint:hotpath
func (s *Sharded[V]) Neighbors(v V, scratch *Scratch[V]) ([]V, []Weight, error) {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	k, u := s.owner(v)
	sub := s.state(scratch).subs[k]
	if scratch.Read != nil { // the read Request moved up for this visit
		sub.Read, scratch.Read = scratch.Read, nil
	}
	return s.members[k].Neighbors(u, sub)
}

// Request implements BatchAdjacency: the sweep is grouped by owning member,
// each member starts its group's reads on its sub-scratch in one call, and
// the reads and waits go back to their places in the sweep; a member posts
// its own landings to to; Neighbors hands a read down to its member. A member
// that cannot batch gets no read: its vertices are read at the visit.
func (s *Sharded[V]) Request(vs []V, reads []any, waits []<-chan struct{}, to Completions, scratch *Scratch[V]) (full bool) {
	clear(waits)
	if scratch == nil {
		return false
	}
	ss := s.state(scratch)
	for k := range ss.groups {
		ss.groups[k], ss.at[k], ss.reads[k] = ss.groups[k][:0], ss.at[k][:0], ss.reads[k][:0]
	}
	for i, v := range vs {
		if k, u := s.owner(v); s.batch[k] != nil {
			ss.groups[k] = append(ss.groups[k], u)
			ss.at[k] = append(ss.at[k], i)
			ss.reads[k] = append(ss.reads[k], reads[i])
		}
	}
	for k, b := range s.batch {
		n := len(ss.groups[k])
		if n == 0 {
			continue
		}
		ws := slices.Grow(ss.waits[k][:0], n)[:n]
		full = b.Request(ss.groups[k], ss.reads[k], ws, to, ss.subs[k]) || full
		for j, i := range ss.at[k] {
			reads[i], waits[i] = ss.reads[k][j], ws[j]
		}
		clear(ss.reads[k])
		clear(ws)
		ss.waits[k] = ws
	}
	return full
}

// HasInEdges reports whether every member can serve reverse adjacency, the
// router's dynamic side of the InAdjacency capability: shard writers store a
// vertex's in-edges on its owning member (the transpose is partitioned by
// destination, same as the forward adjacency by source), so the partition is
// direction-capable only when every file carries its in-edge section.
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
	k, u := s.owner(v)
	return s.members[k].(InAdjacency[V]).InDegree(u)
}

// InNeighbors implements InAdjacency: route to v's owning member with that
// member's sub-scratch, exactly like Neighbors.
//
//lint:hotpath
func (s *Sharded[V]) InNeighbors(v V, scratch *Scratch[V]) ([]V, error) {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	k, u := s.owner(v)
	return s.members[k].(InAdjacency[V]).InNeighbors(u, s.state(scratch).subs[k])
}

// ScanInEdges implements InScanner by handing every member the rows of its
// own vertices in [lo, hi) — one contiguous row range each, so each scan
// stays sequential within its store — translating ids both ways. Members
// without bulk scan support fall back to per-row InNeighbors.
func (s *Sharded[V]) ScanInEdges(lo, hi V, need func(V) bool, visit func(v V, in []V) error, scratch *Scratch[V]) error {
	if scratch == nil {
		scratch = &Scratch[V]{}
	}
	ss := s.state(scratch)
	n := uint64(len(s.members))
	for k, m := range s.members {
		// Global vertex of member k's row u, and the rows of [lo, hi).
		global := func(u V) V { return V(uint64(u)*n + uint64(k)) }
		ulo := V((uint64(lo) + n - 1 - uint64(k)) / n)
		uhi := V((uint64(hi) + n - 1 - uint64(k)) / n)
		if sc, ok := m.(InScanner[V]); ok {
			err := sc.ScanInEdges(ulo, uhi,
				func(u V) bool { return need(global(u)) },
				func(u V, in []V) error { return visit(global(u), in) },
				ss.subs[k])
			if err != nil {
				return err
			}
			continue
		}
		ia := m.(InAdjacency[V])
		for u := ulo; u < uhi; u++ {
			if !need(global(u)) || ia.InDegree(u) == 0 {
				continue
			}
			in, err := ia.InNeighbors(u, ss.subs[k])
			if err != nil {
				return err
			}
			if err := visit(global(u), in); err != nil {
				return err
			}
		}
	}
	return nil
}

var (
	_ BatchAdjacency[uint32] = (*Sharded[uint32])(nil)
	_ InScanner[uint32]      = (*Sharded[uint32])(nil)
)
