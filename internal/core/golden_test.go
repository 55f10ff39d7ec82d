package core

import (
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/pq"
)

// windowAdj gives an in-memory CSR the BatchAdjacency capability, so the
// kernels register a pop-window hook against it, and records what the hook
// announced. With one worker the counters have a single writer.
type windowAdj struct {
	*graph.CSR[uint32]
	windows, announced int
}

func (w *windowAdj) NeighborsBatch(vs []uint32, _ *graph.Scratch[uint32]) {
	w.windows++
	w.announced += len(vs)
}

func labelDigest(labels []graph.Dist) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		for i := range b {
			b[i] = byte(l >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

type goldenRun struct {
	visits, pushes     uint64
	maxQueue           int
	digest             uint64
	windows, announced int
}

// ccSeededBeforeStart runs the CC visitor through the raw engine with every
// initial visitor queued before Start. The public CC races ParallelInit
// against the already-running worker, so its counters are not reproducible
// even with one worker; seeded up front the run is a pure function of pop
// order. prefetch > 1 registers a recording pop-window hook.
func ccSeededBeforeStart(t *testing.T, g *graph.CSR[uint32], prefetch int) goldenRun {
	t.Helper()
	labels := make([]graph.Dist, g.NumVertices())
	initLabels[uint32](labels, nil)
	k := &kernelState[uint32]{g: g, labels: labels, step: ccStep}
	e := New[uint32](Config{Workers: 1, Prefetch: prefetch}, k.visit)
	var run goldenRun
	if prefetch > 1 {
		e.SetPrefetch(func(window []pq.Item, _ *graph.Scratch[uint32]) {
			run.windows++
			run.announced += len(window)
		})
	}
	for v := uint64(0); v < g.NumVertices(); v++ {
		e.Push(v, uint32(v), 0)
	}
	e.Start()
	st, err := e.Wait()
	if err != nil {
		t.Fatal(err)
	}
	run.visits, run.pushes, run.maxQueue, run.digest = st.Visits, st.Pushes, st.MaxQueue, labelDigest(labels)
	return run
}

// TestSingleWorkerGolden pins the worker loop's pop order: a one-worker run
// is deterministic, so its visit, push and queue high-water counters and its
// labels are a fingerprint of the exact pop/visit/deliver sequence, with the
// loop at width 1 and at a 16-wide pop window. The expected values were
// recorded from the two-loop engine (worker + workerWindowed) this loop
// replaced.
func TestSingleWorkerGolden(t *testing.T) {
	dg := randomDigraph(t, 600, 4800, true, 41)
	ug := randomUndirected(t, 600, 1500, 43)
	want := map[string]goldenRun{
		"bfs":         {4770, 4769, 2977, 0x9b3a73cd36111e6, 0, 0},
		"bfs-window":  {4770, 4769, 3040, 0x9b3a73cd36111e6, 118, 606},
		"sssp":        {4770, 4769, 2963, 0xa039ef19f5f055a5, 0, 0},
		"sssp-window": {4783, 4782, 2960, 0xa039ef19f5f055a5, 128, 606},
		"cc":          {3680, 3080, 2168, 0xda43a2686a5590c5, 0, 0},
		"cc-window":   {3710, 3110, 2280, 0xda43a2686a5590c5, 233, 3709},
	}
	got := map[string]goldenRun{}
	for _, window := range []bool{false, true} {
		suffix, cfg := "", Config{Workers: 1}
		var adj graph.Adjacency[uint32] = dg
		wa := &windowAdj{CSR: dg}
		if window {
			suffix, cfg.Prefetch, adj = "-window", 16, wa
		}
		bfs, err := BFS[uint32](adj, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got["bfs"+suffix] = goldenRun{bfs.Stats.Visits, bfs.Stats.Pushes, bfs.Stats.MaxQueue, labelDigest(bfs.Level), wa.windows, wa.announced}
		wa.windows, wa.announced = 0, 0
		sssp, err := SSSP[uint32](adj, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got["sssp"+suffix] = goldenRun{sssp.Stats.Visits, sssp.Stats.Pushes, sssp.Stats.MaxQueue, labelDigest(sssp.Dist), wa.windows, wa.announced}
		got["cc"+suffix] = ccSeededBeforeStart(t, ug, cfg.Prefetch)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %#v, want %#v", name, g, w)
		}
	}
}
