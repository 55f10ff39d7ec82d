package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/graph"
)

// The oracle holds, for every distinct query of a run, the answer of the
// serial baseline on the in-memory CSR of the same graph. It is built before
// the timed region and consulted after each query, outside it.

// answer is the baseline's result for one (kernel, source).
type answer struct {
	labels []graph.Dist // bfs levels or sssp distances
	ids    []uint32     // cc component ids
	// reached counts vertices with a finite label, maxLabel is the largest
	// finite label, components the number of cc components: the fields of
	// the server's response summary.
	reached, maxLabel, components uint64
	// edges is the traversal's useful work: the out-degrees of the reached
	// vertices for bfs/sssp, every edge for cc.
	edges uint64
}

type oracle struct {
	g       *graph.CSR[uint32]
	answers map[query]*answer
}

func newOracle(g *graph.CSR[uint32], qs []query) (*oracle, error) {
	o := &oracle{g: g, answers: make(map[query]*answer)}
	for _, q := range qs {
		if _, err := o.ensure(q); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ensure computes (once) and returns the baseline answer for q.
func (o *oracle) ensure(q query) (*answer, error) {
	if a, ok := o.answers[q]; ok {
		return a, nil
	}
	a := &answer{}
	var err error
	switch q.Kernel {
	case kBFS:
		a.labels, err = baseline.SerialBFS[uint32](o.g, q.Source)
	case kSSSP:
		a.labels, _, err = baseline.SerialDijkstra[uint32](o.g, q.Source)
	default:
		a.ids, err = baseline.SerialCC[uint32](o.g)
	}
	if err != nil {
		return nil, fmt.Errorf("baseline %s from %d: %w", kernelNames[q.Kernel], q.Source, err)
	}
	for v, l := range a.labels {
		if l != graph.InfDist {
			a.reached++
			a.maxLabel = max(a.maxLabel, l)
			a.edges += uint64(o.g.Degree(uint32(v)))
		}
	}
	if q.Kernel == kCC {
		a.reached = uint64(len(a.ids))
		a.edges = o.g.NumEdges()
		for v, id := range a.ids {
			a.maxLabel = max(a.maxLabel, uint64(id))
			if id == uint32(v) {
				a.components++
			}
		}
	}
	o.answers[q] = a
	return a, nil
}

// answer returns the precomputed answer for a query of the run's list.
func (o *oracle) answer(q query) *answer {
	if q.Kernel == kCC {
		q.Source = 0
	}
	return o.answers[q]
}

// matches reports whether a traversal's output equals the baseline's: label
// for label for bfs and sssp, and as a partition for cc (two labellings agree
// when they group the vertices identically, whatever the ids).
func (a *answer) matches(labels []graph.Dist, ids []uint32) bool {
	if a.ids != nil {
		return samePartition(a.ids, ids)
	}
	if len(labels) != len(a.labels) {
		return false
	}
	for v, l := range a.labels {
		if labels[v] != l {
			return false
		}
	}
	return true
}

func samePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	ab := make(map[uint32]uint32)
	ba := make(map[uint32]uint32)
	for v := range a {
		if x, ok := ab[a[v]]; ok && x != b[v] {
			return false
		}
		if x, ok := ba[b[v]]; ok && x != a[v] {
			return false
		}
		ab[a[v]], ba[b[v]] = b[v], a[v]
	}
	return true
}
