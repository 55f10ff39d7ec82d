package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// Probes time one public call of one layer in a tight loop, in isolation, for
// a fixed number of iterations. They are the per-layer numbers an optimisation
// of that layer moves first; whether the end-to-end metric follows is what the
// workloads are for. Each traced run executes only the probes of the layers
// its workload has on the path, so a run stays short.

// probeIters is the iteration count of the cheap (nanosecond) probes;
// expensive ones divide it. -smoke lowers it to 1000.
var probeIters = 200_000

// memStore is a zero-latency store: probes of the layers above the device use
// it so that only the layer's own cost is timed.
type memStore struct{ *bytes.Reader }

func (m memStore) Size() int64 { return m.Reader.Size() }

func perOp(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

// probePQ times the semi-sorted heap the SEM workloads queue visitors in:
// push+pop pairs on a heap holding 1024 items, and 16-item PopBatch windows.
func probePQ(res *result) {
	rng := rand.New(rand.NewPCG(1, 2))
	item := func() pq.Item { return pq.Item{Pri: rng.Uint64N(64), V: rng.Uint64N(1 << 20)} }
	h := pq.New(true)
	for i := 0; i < 1024; i++ {
		h.Push(item())
	}
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		h.Push(item())
		h.Pop()
	}
	res.set("pq.push_pop_ns", perOp(time.Since(start), probeIters, time.Nanosecond))

	batch := make([]pq.Item, 16)
	var window []pq.Item
	rounds := probeIters / len(batch)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		for j := range batch {
			batch[j] = item()
		}
		h.PushBatch(batch)
		window = h.PopBatch(window[:0], len(batch))
	}
	res.set("pq.popbatch_ns", perOp(time.Since(start), rounds*len(batch), time.Nanosecond))
}

// probeCore times the engine's fixed cost per visitor with 16 workers, the
// im-batch and serve-open setting: dispatch of externally pushed no-op
// visitors, and visitor-to-visitor pushes through the batching outboxes.
func probeCore(res *result) error {
	n := probeIters
	e := core.New[uint32](core.Config{Workers: 16}, func(*core.Ctx[uint32], pq.Item) error { return nil })
	e.Start()
	start := time.Now()
	for i := 0; i < n; i++ {
		e.Push(uint64(i), uint32(i), 0)
	}
	if _, err := e.Wait(); err != nil {
		return fmt.Errorf("probe core.dispatch: %w", err)
	}
	res.set("core.dispatch_ns", perOp(time.Since(start), n, time.Nanosecond))

	var budget atomic.Int64
	budget.Store(int64(n))
	e = core.New[uint32](core.Config{Workers: 16}, func(ctx *core.Ctx[uint32], it pq.Item) error {
		for k := uint64(0); k < 4; k++ {
			if budget.Add(-1) < 0 {
				return nil
			}
			ctx.Push(it.Pri+1, uint32((it.V*4+k+1)%65536), 0)
		}
		return nil
	})
	e.Start()
	start = time.Now()
	e.Push(0, 0, 0)
	st, err := e.Wait()
	if err != nil {
		return fmt.Errorf("probe core.push: %w", err)
	}
	res.set("core.push_ns", perOp(time.Since(start), int(st.Pushes), time.Nanosecond))
	return nil
}

// probeSEMCache times the block cache's hit path, its miss path over a
// zero-latency backing, and one Neighbors call of a raw v1 graph.
func probeSEMCache(res *result, g *graph.CSR[uint32]) error {
	var file bytes.Buffer
	if err := sem.Write(&file, g, sem.WriteConfig{}); err != nil {
		return fmt.Errorf("probe sem: write: %w", err)
	}
	backing := memStore{bytes.NewReader(file.Bytes())}
	const block = 4096
	blocks := int(backing.Size() / block)
	buf := make([]byte, 64)

	hot, err := sem.NewCachedStore(backing, block, backing.Size())
	if err != nil {
		return fmt.Errorf("probe sem: %w", err)
	}
	if _, err := hot.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("probe sem: %w", err)
	}
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		if _, err := hot.ReadAt(buf, int64(i%block/2)); err != nil {
			return fmt.Errorf("probe sem.cache_hit: %w", err)
		}
	}
	res.set("sem.cache_hit_ns", perOp(time.Since(start), probeIters, time.Nanosecond))

	// Eight blocks of capacity and a sequential sweep: every read misses
	// and evicts.
	cold, err := sem.NewCachedStore(backing, block, 8*block)
	if err != nil {
		return fmt.Errorf("probe sem: %w", err)
	}
	n := probeIters / 10
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := cold.ReadAt(buf, int64(i%blocks)*block); err != nil {
			return fmt.Errorf("probe sem.cache_miss: %w", err)
		}
	}
	res.set("sem.cache_miss_us", perOp(time.Since(start), n, time.Microsecond))

	sg, err := sem.Open[uint32](backing)
	if err != nil {
		return fmt.Errorf("probe sem: open: %w", err)
	}
	var scratch graph.Scratch[uint32]
	nv := uint32(sg.NumVertices())
	start = time.Now()
	for i := 0; i < probeIters; i++ {
		if _, _, err := sg.Neighbors(uint32(i)%nv, &scratch); err != nil {
			return fmt.Errorf("probe sem.neighbors: %w", err)
		}
	}
	res.set("sem.neighbors_ns", perOp(time.Since(start), probeIters, time.Nanosecond))
	return nil
}

// probeCodec times delta+varint adjacency decode: megabytes of compressed
// blocks decoded per second, sweeping every vertex of g.
func probeCodec(res *result, g *graph.CSR[uint32]) error {
	c, err := graph.Compress(g)
	if err != nil {
		return fmt.Errorf("probe graph.decode: %w", err)
	}
	var scratch graph.Scratch[uint32]
	n := uint32(c.NumVertices())
	sweeps := max(1, probeIters/int(n))
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		for v := uint32(0); v < n; v++ {
			if _, _, err := c.Neighbors(v, &scratch); err != nil {
				return fmt.Errorf("probe graph.decode: %w", err)
			}
		}
	}
	mb := float64(c.CompressedBytes()) * float64(sweeps) / (1 << 20)
	res.set("graph.decode_mb_s", mb/time.Since(start).Seconds())
	return nil
}

// probeSSD times what one uncontended 4 KiB read costs above the service time
// the device model charges it: the simulation's own overhead (slot hand-off
// and sleep overshoot).
func probeSSD(res *result) error {
	dev := ssd.New(ssd.FusionIO, &ssd.MemBacking{Data: make([]byte, 1<<20)})
	buf := make([]byte, 4096)
	n := max(20, probeIters/2000)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := dev.ReadAt(buf, int64(i%256)*4096); err != nil {
			return fmt.Errorf("probe ssd.overhead: %w", err)
		}
	}
	over := time.Since(start) - time.Duration(n)*modelledRead(ssd.FusionIO, len(buf))
	res.set("ssd.overhead_us", perOp(over, n, time.Microsecond))
	return nil
}
