package core

import (
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/pq"
)

// windowAdj gives an in-memory CSR the BatchAdjacency capability, so the
// kernels register a read hook against it, and records the sweeps the hook
// requested: every adjacency is resident, so every visitor runs at once.
// With one worker the counters have a single writer.
type windowAdj struct {
	*graph.CSR[uint32]
	windows, announced int
}

func (w *windowAdj) Request(vs []uint32, _ []any, _ []<-chan struct{}, _ graph.Completions, _ *graph.Scratch[uint32]) bool {
	w.windows++
	w.announced += len(vs)
	return false
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
	pruned             uint64
	maxQueue           int
	digest             uint64
	windows, announced int
}

// ccSeededBeforeStart runs the CC visitor through the raw engine with every
// initial visitor queued before Start. The public CC races ParallelInit
// against the already-running worker, so its counters are not reproducible
// even with one worker; seeded up front the run is a pure function of pop
// order. prefetch > 1 registers a recording read hook, as on a device.
func ccSeededBeforeStart(t *testing.T, g *graph.CSR[uint32], prefetch int) goldenRun {
	t.Helper()
	labels := make([]graph.Dist, g.NumVertices())
	k := newKernelState[uint32](g, labels, nil, ccStep, nil)
	e := New[uint32](Config{Workers: 1, Prefetch: prefetch}, k.visit)
	var run goldenRun
	if prefetch > 1 {
		// What runKernel wires for a graph on a device: the read hook and
		// delivery after every visit.
		e.DeliverEveryVisit()
		e.SetRequest(func(sweep []pq.Item, _ []any, _ []<-chan struct{}, _ graph.Completions, _ *graph.Scratch[uint32]) bool {
			run.windows++
			run.announced += len(sweep)
			return false
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
	run.visits, run.pushes, run.pruned, run.maxQueue, run.digest = st.Visits, st.Pushes, st.Pruned, st.MaxQueue, labelDigest(labels)
	return run
}

// TestSingleWorkerGolden pins the runner loop's pop order: a one-queue run
// is deterministic, so its visit, push, prune and queue high-water counters
// and its labels are a fingerprint of the exact pop/visit/deliver sequence,
// with the loop at its in-memory batch and at a 16-wide device sweep.
//
// The label digests are the ones recorded before the claim-at-push filter
// (kernelState.propose); the counters were re-recorded with it. Without the
// filter the same runs read {visits, pushes, maxQueue, windows, announced}:
//
//	bfs          4770 4769 2977   0    0
//	bfs-window   4770 4769 3040 118  606
//	sssp         4770 4769 2963   0    0
//	sssp-window  4783 4782 2960 128  606
//	cc           3680 3080 2168   0    0
//	cc-window    3710 3110 2280 233 3709
//
// The -window rows run a graph.BatchAdjacency graph, which the kernels take
// for a graph on a device and deliver after every visit; their counters were
// re-recorded once when that trigger landed (PR 24). With delivery on the size
// and drain triggers alone they read {visits, pushes, pruned, maxQueue,
// windows, announced}:
//
//	bfs-window    600  599 4170 368 38  597
//	sssp-window  1125 1124 3978 656 70  647
//	cc-window    1307  707 2578 968 83 1305
//
// The sssp, sssp-window and cc counters were re-recorded once more when the
// label became the claim word: a visitor overtaken in flight is now dropped
// on arrival instead of reading its adjacency again. Before that they read
// {visits, pushes, pruned, maxQueue, windows, announced}:
//
//	sssp         1111 1110 3942 654  0   0
//	sssp-window  1113 1112 3660 672 65 608
//	cc           1301  701 2553 966  0   0
//
// The bfs, sssp and cc counters were re-recorded once more when in-memory
// runners began popping popBatch visitors at a time: a bucket the size
// trigger delivers mid-batch waits for the batch to end. With one visitor a
// pop they read {visits, pushes, pruned, maxQueue}:
//
//	bfs           600  599 4170 375
//	sssp         1102 1101 3718 654
//	cc           1298  698 2411 966
//
// The bfs-window and sssp-window windows and announced were re-recorded once
// more when the pop window became the device runner's sweep, whose read hook
// sees every pop: the source's one-visitor first pop is a sweep, where the
// window hook saw only pops of more than one. Before that they read 38 599
// and 66 600; every other field is unchanged.
//
// The sssp and sssp-window counters were re-recorded once more when the
// kernel's queues began keeping one visitor per vertex: a visitor that meets
// a better one queued for its vertex is dropped at delivery, and a better
// one replaces the queued one, instead of every overtaken visitor being
// popped and dropped at its visit. Before that they read {visits, pushes,
// pruned, maxQueue, windows, announced}:
//
//	sssp         1116 1115 3728 664  0   0
//	sssp-window  1110 1109 3660 667 67 601
//
// The bfs rows never queue a vertex twice and the cc rows run a custom
// engine (ccSeededBeforeStart), which keeps one visitor per push.
func TestSingleWorkerGolden(t *testing.T) {
	dg := randomDigraph(t, 600, 4800, true, 41)
	ug := randomUndirected(t, 600, 1500, 43)
	want := map[string]goldenRun{
		"bfs":         {600, 599, 4170, 376, 0x9b3a73cd36111e6, 0, 0},
		"bfs-window":  {600, 599, 4170, 375, 0x9b3a73cd36111e6, 39, 600},
		"sssp":        {675, 1112, 3724, 373, 0xa039ef19f5f055a5, 0, 0},
		"sssp-window": {602, 1110, 3659, 379, 0xa039ef19f5f055a5, 39, 602},
		"cc":          {1305, 705, 2417, 976, 0xda43a2686a5590c5, 0, 0},
		"cc-window":   {1305, 705, 2411, 975, 0xda43a2686a5590c5, 82, 1305},
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
		got["bfs"+suffix] = goldenRun{bfs.Stats.Visits, bfs.Stats.Pushes, bfs.Stats.Pruned, bfs.Stats.MaxQueue, labelDigest(bfs.Level), wa.windows, wa.announced}
		wa.windows, wa.announced = 0, 0
		sssp, err := SSSP[uint32](adj, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got["sssp"+suffix] = goldenRun{sssp.Stats.Visits, sssp.Stats.Pushes, sssp.Stats.Pruned, sssp.Stats.MaxQueue, labelDigest(sssp.Dist), wa.windows, wa.announced}
		got["cc"+suffix] = ccSeededBeforeStart(t, ug, cfg.Prefetch)

		// What the filter makes true of a one-worker BFS: no vertex is queued
		// twice, so every reached vertex is visited exactly once and relaxes
		// each of its out-edges exactly once — queued or pruned. (The source's
		// external seed is counted by neither Pushes nor Pruned.)
		var reached, outEdges uint64
		for v, l := range bfs.Level {
			if l != graph.InfDist {
				reached++
				outEdges += uint64(dg.Degree(uint32(v)))
			}
		}
		if bfs.Stats.Visits != reached {
			t.Errorf("bfs%s: %d visits for %d reached vertices", suffix, bfs.Stats.Visits, reached)
		}
		if sum := bfs.Stats.Pushes + bfs.Stats.Pruned; sum != outEdges {
			t.Errorf("bfs%s: pushes %d + pruned %d = %d, want the reached vertices' %d out-edges",
				suffix, bfs.Stats.Pushes, bfs.Stats.Pruned, sum, outEdges)
		}
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %#v, want %#v", name, g, w)
		}
	}
}
