// Package bsp simulates the distributed-memory comparator of the paper's
// evaluation (the Parallel Boost Graph Library). The graph is partitioned
// over P ranks by vertex ownership; ranks run as goroutines and communicate
// only by exchanging message buffers at superstep barriers, the
// bulk-synchronous model PBGL's distributed BFS and CC follow.
//
// The paper attributes distributed-memory weakness on power-law graphs to
// "significant load imbalance": a rank owning a hub vertex produces far more
// messages than its peers, and every rank waits at the barrier for the
// slowest. The per-superstep imbalance statistics exposed here quantify
// exactly that effect.
package bsp

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// errCollector keeps the first error raised by any rank.
type errCollector struct {
	once sync.Once
	err  error
}

func (e *errCollector) set(err error) {
	if err != nil {
		e.once.Do(func() { e.err = err })
	}
}

// LoadStats records per-superstep message imbalance across ranks.
type LoadStats struct {
	Supersteps int
	// Imbalance is, per superstep, max-messages-per-rank divided by
	// mean-messages-per-rank (1.0 = perfectly balanced).
	Imbalance []float64
	Messages  uint64
}

// MaxImbalance returns the worst per-superstep imbalance factor.
func (s LoadStats) MaxImbalance() float64 {
	max := 0.0
	for _, f := range s.Imbalance {
		if f > max {
			max = f
		}
	}
	return max
}

// Cluster is a simulated distributed-memory machine processing a partitioned
// graph. Vertices are distributed cyclically: vertex v is owned by rank
// v mod P, the default PBGL distribution.
type Cluster[V graph.Vertex] struct {
	g     graph.Adjacency[V]
	ranks int
}

// NewCluster partitions g across `ranks` simulated compute nodes.
func NewCluster[V graph.Vertex](g graph.Adjacency[V], ranks int) (*Cluster[V], error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("bsp: ranks must be positive, got %d", ranks)
	}
	return &Cluster[V]{g: g, ranks: ranks}, nil
}

func (c *Cluster[V]) owner(v V) int { return int(uint64(v) % uint64(c.ranks)) }

// exchange runs one superstep: every rank consumes its inbox and produces
// per-destination outboxes; a barrier separates compute from delivery.
// It returns the new inboxes and the number of messages moved.
func exchange[M any](ranks int, inboxes [][]M, step func(rank int, in []M, send func(dst int, m M))) ([][]M, []uint64) {
	outboxes := make([][][]M, ranks) // [src][dst][]M
	counts := make([]uint64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([][]M, ranks)
			step(r, inboxes[r], func(dst int, m M) {
				out[dst] = append(out[dst], m)
				counts[r]++
			})
			outboxes[r] = out
		}(r)
	}
	wg.Wait() // superstep barrier
	next := make([][]M, ranks)
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			next[dst] = append(next[dst], outboxes[src][dst]...)
		}
	}
	return next, counts
}

func recordImbalance(stats *LoadStats, counts []uint64) {
	var total, max uint64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	stats.Messages += total
	if total == 0 {
		return
	}
	mean := float64(total) / float64(len(counts))
	stats.Imbalance = append(stats.Imbalance, float64(max)/mean)
}

// BFS runs a level-synchronous distributed breadth-first search from src and
// returns per-vertex levels plus load statistics.
func (c *Cluster[V]) BFS(src V) ([]graph.Dist, LoadStats, error) {
	n := c.g.NumVertices()
	if uint64(src) >= n {
		return nil, LoadStats{}, fmt.Errorf("bsp: source %d out of range for %d vertices", src, n)
	}
	// level is sharded by ownership: rank r only touches level[v] with
	// owner(v) == r, so there are no concurrent writers.
	level := make([]graph.Dist, n)
	for i := range level {
		level[i] = graph.InfDist
	}
	inboxes := make([][]V, c.ranks)
	inboxes[c.owner(src)] = []V{src}
	var stats LoadStats
	var errs errCollector
	cur := graph.Dist(0)
	for errs.err == nil {
		empty := true
		for _, in := range inboxes {
			if len(in) > 0 {
				empty = false
				break
			}
		}
		if empty {
			break
		}
		stats.Supersteps++
		var counts []uint64
		inboxes, counts = exchange(c.ranks, inboxes, func(rank int, in []V, send func(int, V)) {
			scratch := &graph.Scratch[V]{}
			for _, v := range in {
				if level[v] != graph.InfDist {
					continue
				}
				level[v] = cur
				targets, _, err := c.g.Neighbors(v, scratch)
				if err != nil {
					errs.set(err)
					return
				}
				for _, t := range targets {
					send(c.owner(t), t)
				}
			}
		})
		recordImbalance(&stats, counts)
		cur++
	}
	if errs.err != nil {
		return nil, stats, errs.err
	}
	return level, stats, nil
}

type ccMsg[V graph.Vertex] struct {
	v     V
	label uint64
}

// CC runs a synchronous distributed label-propagation connected components
// over an undirected (symmetrized) graph and returns min-id component labels
// plus load statistics.
func (c *Cluster[V]) CC() ([]V, LoadStats, error) {
	n := c.g.NumVertices()
	labels := make([]uint64, n)
	inboxes := make([][]ccMsg[V], c.ranks)
	for v := uint64(0); v < n; v++ {
		labels[v] = v
		// Seed: every vertex announces its own label to itself, which
		// triggers the first propagation wave.
		r := c.owner(V(v))
		inboxes[r] = append(inboxes[r], ccMsg[V]{v: V(v), label: v})
	}
	// The seed wave is free (local); don't count it as communication.
	var stats LoadStats
	var errs errCollector
	first := true
	for errs.err == nil {
		empty := true
		for _, in := range inboxes {
			if len(in) > 0 {
				empty = false
				break
			}
		}
		if empty {
			break
		}
		stats.Supersteps++
		var counts []uint64
		inboxes, counts = exchange(c.ranks, inboxes, func(rank int, in []ccMsg[V], send func(int, ccMsg[V])) {
			scratch := &graph.Scratch[V]{}
			for _, m := range in {
				if m.label > labels[m.v] {
					continue
				}
				if m.label < labels[m.v] {
					labels[m.v] = m.label
				} else if !first {
					continue // equal label, already propagated
				}
				targets, _, err := c.g.Neighbors(m.v, scratch)
				if err != nil {
					errs.set(err)
					return
				}
				for _, t := range targets {
					// labels[t] may be owned by another rank; a distributed
					// implementation cannot read it, so the message is sent
					// unconditionally and filtered at the receiver.
					send(c.owner(t), ccMsg[V]{v: t, label: labels[m.v]})
				}
			}
		})
		first = false
		recordImbalance(&stats, counts)
	}
	if errs.err != nil {
		return nil, stats, errs.err
	}
	out := make([]V, n)
	for v := range out {
		out[v] = V(labels[v])
	}
	return out, stats, nil
}
