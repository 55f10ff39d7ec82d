package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// The three batch workloads are closed-loop with one client: an analyst runs
// one traversal, waits for it, runs the next. They differ only in where the
// graph lives and which read path serves it, which is the point: each puts a
// different set of layers on the blocking path.

type kernel int

const (
	kBFS kernel = iota
	kSSSP
	kCC
	numKernels
)

var kernelNames = [numKernels]string{"bfs", "sssp", "cc"}

// query is one traversal of a batch workload's list.
type query struct {
	Kernel kernel
	Source uint32 // ignored for cc
}

// batchSpec describes one batch workload. Sizes are fixed per workload so a
// number means the same thing in every run; -smoke shrinks them.
type batchSpec struct {
	name   string
	scale  int            // RMAT scale: 2^scale vertices, 16 stored edges each
	params gen.RMATParams // RMAT-A or RMAT-B
	// write selects the on-flash layout; nil keeps the graph in memory and
	// the run never touches sem or ssd.
	write *sem.WriteConfig
	// cached mounts the file the way server.MountGraph and `traverse -sem` do
	// (4 KiB blocks, cache = half the file, readahead 8); otherwise the graph
	// reads the raw device through the prefetch pipeline.
	cached bool
	engine core.Config
	// mix is the kernel blend bfs:sssp:cc of the query list, pool the number
	// of distinct sources per kernel the list cycles through.
	mix    [numKernels]int
	pool   int
	warmup int // leading queries run but not timed
	hybrid int // DirectionHybrid BFS runs appended to the traced pass
	// setups is how many times a measuring process sets the workload up;
	// setup_s is the median over all of them. A traced run needs two mounts.
	setups int
	// procs is how many processes an untraced run measures in.
	procs int
}

var batchSpecs = map[string]batchSpec{
	"im-batch": {
		name: "im-batch", scale: 14, params: gen.RMATA,
		engine: core.Config{Workers: 16},
		mix:    [numKernels]int{14, 9, 5}, pool: 8, warmup: 2, setups: 2, procs: 6,
	},
	"sem-cached": {
		name: "sem-cached", scale: 12, params: gen.RMATA,
		write: &sem.WriteConfig{}, cached: true,
		engine: core.Config{Workers: 128, SemiSort: true},
		mix:    [numKernels]int{7, 3, 2}, pool: 8, warmup: 1, setups: 3, procs: 3,
	},
	"sem-pipeline": {
		name: "sem-pipeline", scale: 13, params: gen.RMATB,
		write:  &sem.WriteConfig{Compress: true, InEdges: true},
		engine: core.Config{Workers: 128, SemiSort: true, Prefetch: 16},
		mix:    [numKernels]int{16, 6, 6}, pool: 8, warmup: 1, hybrid: 16, setups: 3, procs: 3,
	},
}

// smokeSized returns the spec at -smoke size: a 2^10 graph and a short list,
// set up twice (a traced run needs a bare and a decorated mount).
func (s batchSpec) smokeSized() batchSpec {
	s.scale = 10
	s.setups = 2
	s.pool = 2
	s.warmup = 1
	if s.hybrid > 0 {
		s.hybrid = 2
	}
	return s
}

// graphSeed generates every workload's graph. The graph is the benchmark's
// fixed data set and -seed draws what is asked of it (sources, order,
// arrivals): at the sizes a run can afford, another RMAT draw of the same
// parameters moves every time-to-solution by up to 20 %, which is a property
// of the draw, not of the program under test.
const graphSeed = 2010

// buildGraph generates a workload's graph: undirected (so CC is well defined
// and the serial baselines apply to all three kernels) with uniform weights,
// 8 generated edges per vertex symmetrised to 16 stored.
func buildGraph(scale int, p gen.RMATParams, seed uint64) (*graph.CSR[uint32], error) {
	g, err := gen.RMATUndirected[uint32](scale, 8, p, seed)
	if err != nil {
		return nil, fmt.Errorf("generate rmat 2^%d: %w", scale, err)
	}
	g, err = gen.UniformWeights(g, seed^0x5eed)
	if err != nil {
		return nil, fmt.Errorf("weight rmat 2^%d: %w", scale, err)
	}
	return g, nil
}

// pickSources draws n distinct source vertices with out-degree >= 1.
func pickSources(g *graph.CSR[uint32], n int, rng *rand.Rand) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for tries := 0; len(out) < n && tries < 1<<20; tries++ {
		v := uint32(rng.Uint64N(g.NumVertices()))
		if g.Degree(v) > 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// buildQueries lays out n queries: kernels interleaved by smooth weighted
// round-robin over mix, each kernel cycling through its own source pool. The
// list is a pure function of (mix, pools, n), so a seed fixes it byte for byte.
func buildQueries(mix [numKernels]int, pools [numKernels][]uint32, n int) []query {
	var credit, served [numKernels]int
	total := 0
	for _, w := range mix {
		total += w
	}
	out := make([]query, n)
	for i := range out {
		best := kernel(0)
		for k := kernel(0); k < numKernels; k++ {
			credit[k] += mix[k]
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		q := query{Kernel: best}
		if best != kCC {
			q.Source = pools[best][served[best]%len(pools[best])]
		}
		served[best]++
		out[i] = q
	}
	return out
}

// batchInputs are everything a batch run derives from the seed.
type batchInputs struct {
	queries []query
	oracle  *oracle
}

// maxQueries bounds a query list; no run gets near it within its time budget.
const maxQueries = 4096

func makeBatchInputs(spec batchSpec, g *graph.CSR[uint32], seed uint64) (*batchInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0xba7c4))
	var pools [numKernels][]uint32
	for _, k := range []kernel{kBFS, kSSSP} {
		pools[k] = pickSources(g, spec.pool, rng)
		if len(pools[k]) == 0 {
			return nil, fmt.Errorf("%s: graph has no vertex with an edge", spec.name)
		}
	}
	qs := buildQueries(spec.mix, pools, maxQueries)
	or, err := newOracle(g, qs)
	if err != nil {
		return nil, err
	}
	return &batchInputs{queries: qs, oracle: or}, nil
}

// setupTimes splits set-up by the module doing the work.
type setupTimes struct {
	gen, write, load, open time.Duration
}

func (s setupTimes) total() time.Duration { return s.gen + s.write + s.load + s.open }

// medianSetup is the median, in seconds, of one part of a run's set-ups.
func medianSetup(setups []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = seconds(part(s))
	}
	return median(xs)
}

// setSetupLayers reports set-up split by the module that did the work.
func setSetupLayers(res *result, setups []setupTimes) {
	res.set("gen.build_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.gen }))
	res.set("sem.write_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.write }))
	res.set("sem.open_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.open }))
	res.set("graph.load_s", medianSetup(setups, func(s setupTimes) time.Duration { return s.load }))
}

// mount is a workload's graph as the queries see it, plus the handles the
// benchmark reads counters from.
type mount struct {
	csr   *graph.CSR[uint32] // in-memory copy: oracle, edge counts
	adj   graph.Adjacency[uint32]
	sg    *sem.Graph[uint32]
	dev   *ssd.Device
	cache *sem.CachedStore
	// above and below are the tracing decorators: above the block cache
	// (what the graph asks for) and directly above the device (what the
	// device is asked for). On the raw-device mount only below exists.
	above, below *timedStore
	file         *os.File
	times        setupTimes
}

func (m *mount) close() {
	if m.file != nil {
		_ = m.file.Close() // read-only handle; nothing to flush
	}
}

// setup performs one full set-up of a batch workload: generate and build the
// graph, write it in the workload's on-flash format, open and mount it. With a
// recorder the mount is built with the tracing decorators in place. path is
// where the graph file goes; each set-up of a run gets its own, because an
// earlier mount may still be reading its file.
func setup(spec batchSpec, path string, rec *recorder) (*mount, error) {
	m := &mount{}
	t0 := time.Now()
	g, err := buildGraph(spec.scale, spec.params, graphSeed)
	if err != nil {
		return nil, err
	}
	m.csr, m.adj = g, g
	m.times.gen = time.Since(t0)
	if spec.write == nil {
		return m, nil
	}

	t0 = time.Now()
	if err := writeGraphFile(path, g, *spec.write); err != nil {
		return nil, err
	}
	m.times.write = time.Since(t0)

	t0 = time.Now()
	if m.file, err = os.Open(path); err != nil {
		return nil, err
	}
	backing, err := ssd.NewFileBacking(m.file)
	if err != nil {
		m.close()
		return nil, err
	}
	m.dev = ssd.New(ssd.FusionIO, backing)
	var store sizedStore = m.dev
	if rec != nil {
		p := m.dev.Profile()
		m.below = newTimedStore(rec, "ssd.read", store, &p)
		store = m.below
	}
	if spec.cached {
		if m.cache, err = sem.NewCachedStoreRA(store, 4096, backing.Size()/2, 8); err != nil {
			m.close()
			return nil, fmt.Errorf("%s: block cache: %w", spec.name, err)
		}
		store = m.cache
		if rec != nil {
			m.above = newTimedStore(rec, "sem.store", store, nil)
			store = m.above
		}
	}
	if m.sg, err = sem.Open[uint32](store); err != nil {
		m.close()
		return nil, fmt.Errorf("%s: open: %w", spec.name, err)
	}
	if spec.engine.Prefetch > 1 {
		m.sg.EnablePrefetch(sem.PrefetchConfig{MaxGap: sem.DefaultPrefetchGap})
	}
	m.adj = m.sg
	m.times.open = time.Since(t0)
	return m, nil
}

func writeGraphFile(path string, g *graph.CSR[uint32], cfg sem.WriteConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := sem.Write(w, g, cfg); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// counters is a snapshot of every public counter a batch run reads, plus the
// decorators' own sums when the mount is traced.
type counters struct {
	dev          ssd.Stats
	hits, misses uint64
	prefetch     sem.PrefetchStats
	above, below seamCounts
}

func (m *mount) snapshot() counters {
	c := counters{above: m.above.counts(), below: m.below.counts()}
	if m.dev != nil {
		c.dev = m.dev.Stats()
	}
	if m.cache != nil {
		c.hits, c.misses = m.cache.Stats()
	}
	if m.sg != nil {
		c.prefetch = m.sg.PrefetchStats()
	}
	return c
}

// pass is what the timed queries of one lane measured.
type pass struct {
	wall      [numKernels][]time.Duration
	all       []time.Duration
	edges     uint64 // traversed edges, as the serial baseline counts them
	reached   uint64
	stats     core.Stats // summed visits/pushes, maxima of the high-water marks
	imbalance float64    // summed, divide by len(all)
	mallocs   uint64     // heap objects and bytes the timed queries allocated
	allocated uint64
	attempted int
	failed    int
	before    counters
	after     counters
	hybridMs  []float64
	hybridBU  int
}

func (p *pass) sampleCounts() string {
	return fmt.Sprintf("bfs=%d sssp=%d cc=%d", len(p.wall[kBFS]), len(p.wall[kSSSP]), len(p.wall[kCC]))
}

func (p *pass) totalWall() time.Duration {
	var d time.Duration
	for _, w := range p.all {
		d += w
	}
	return d
}

// everyKernelTimed reports whether each kernel in the mix has at least one
// timed sample; a run keeps going past its budget until it has, so no
// per-kernel median is ever taken over nothing.
func (p *pass) everyKernelTimed(spec batchSpec) bool {
	for k := kernel(0); k < numKernels; k++ {
		if spec.mix[k] > 0 && len(p.wall[k]) == 0 {
			return false
		}
	}
	return true
}

// lane is one mount the query list is played on. An untraced run has one; a
// traced run has two, bare and decorated, and plays every query on both in
// turn, so that the two see the same inputs in the same order under the same
// drift of the host and differ only by the tracing.
type lane struct {
	m   *mount
	rec *recorder // nil on a bare mount
	p   pass
}

// runQuery executes one query against adj and returns its labels for the
// oracle. Exactly one of the label slices is set.
func runQuery(ctx context.Context, adj graph.Adjacency[uint32], q query, cfg core.Config) (labels []graph.Dist, ids []uint32, st core.Stats, err error) {
	cfg.Context = ctx
	switch q.Kernel {
	case kBFS:
		r, err := core.BFS(adj, q.Source, cfg)
		if err != nil {
			return nil, nil, st, err
		}
		return r.Level, nil, r.Stats, nil
	case kSSSP:
		r, err := core.SSSP(adj, q.Source, cfg)
		if err != nil {
			return nil, nil, st, err
		}
		return r.Dist, nil, r.Stats, nil
	default:
		r, err := core.CC(adj, cfg)
		if err != nil {
			return nil, nil, st, err
		}
		return nil, r.ID, r.Stats, nil
	}
}

// run executes query i of the list on the lane, checks the answer against the
// oracle outside the timed region, and files the measurement when timed.
func (l *lane) run(ctx context.Context, spec batchSpec, in *batchInputs, i int, timed bool) error {
	q := in.queries[i%len(in.queries)]
	id := int32(i + 1)
	if l.rec != nil {
		l.rec.cur.Store(id)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	labels, ids, st, err := runQuery(ctx, l.m.adj, q, spec.engine)
	end := time.Now()
	runtime.ReadMemStats(&after)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if l.rec != nil {
		l.rec.add("query."+kernelNames[q.Kernel], id, 0, start, end)
	}
	p := &l.p
	p.attempted++
	want := in.oracle.answer(q)
	if err != nil || !want.matches(labels, ids) {
		p.failed++
		fmt.Fprintf(os.Stderr, "%s: query %d (%s from %d) failed: err=%v\n", spec.name, i, kernelNames[q.Kernel], q.Source, err)
	}
	if !timed {
		return nil
	}
	d := end.Sub(start)
	p.wall[q.Kernel] = append(p.wall[q.Kernel], d)
	p.all = append(p.all, d)
	p.edges += want.edges
	p.reached += want.reached
	p.stats.Visits += st.Visits
	p.stats.Pushes += st.Pushes
	p.stats.MaxQueue = max(p.stats.MaxQueue, st.MaxQueue)
	p.stats.PeakOutstanding = max(p.stats.PeakOutstanding, st.PeakOutstanding)
	p.imbalance += st.Imbalance()
	p.mallocs += after.Mallocs - before.Mallocs
	p.allocated += after.TotalAlloc - before.TotalAlloc
	return nil
}

// runLanes plays the query list on every lane: the warm-up queries untimed,
// then timed queries until the budget is spent (the query in flight when it
// runs out is completed on every lane).
func runLanes(ctx context.Context, spec batchSpec, in *batchInputs, budget time.Duration, lanes ...*lane) error {
	// The lane that plays a query second finds the processor's caches warm
	// (measured: 5-8 % faster on identical mounts), so the lanes take turns
	// going first and the order cancels out of the median of their ratios.
	each := func(i int, timed bool) error {
		for j := range lanes {
			l := lanes[(i+j)%len(lanes)]
			if err := l.run(ctx, spec, in, i, timed); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < spec.warmup; i++ {
		if err := each(i, false); err != nil {
			return err
		}
	}
	for _, l := range lanes {
		l.p.before = l.m.snapshot()
	}
	begin := time.Now()
	for i := spec.warmup; time.Since(begin) < budget || !lanes[0].p.everyKernelTimed(spec); i++ {
		if err := each(i, true); err != nil {
			return err
		}
	}
	for _, l := range lanes {
		l.p.after = l.m.snapshot()
	}
	return nil
}

// runHybrid appends the direction-optimizing BFS runs to a traced pass: they
// exercise ScanInEdges, the third span path, and are reported per layer only.
func runHybrid(ctx context.Context, spec batchSpec, m *mount, in *batchInputs, p *pass) error {
	cfg := spec.engine
	cfg.Direction = core.DirectionHybrid
	cfg.Context = ctx
	done := 0
	for _, q := range in.queries {
		if done == spec.hybrid {
			break
		}
		if q.Kernel != kBFS {
			continue
		}
		done++
		start := time.Now()
		r, err := core.BFS(m.adj, q.Source, cfg)
		d := time.Since(start)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		p.attempted++
		if err != nil || !in.oracle.answer(q).matches(r.Level, nil) {
			p.failed++
			fmt.Fprintf(os.Stderr, "%s: hybrid bfs from %d failed: err=%v\n", spec.name, q.Source, err)
			continue
		}
		p.hybridMs = append(p.hybridMs, millis(d))
		p.hybridBU += r.Stats.BottomUpPhases
	}
	return nil
}

// timings hands an untraced pass's measurements over for pooling.
func (p *pass) timings(setups []setupTimes) *timings {
	t := &timings{Edges: p.edges}
	for _, s := range setups {
		t.SetupS = append(t.SetupS, seconds(s.total()))
	}
	for k := range p.wall {
		t.KernelMs[k] = durationsMs(p.wall[k])
	}
	return t
}

// batchPerLayer fills the per-layer metrics from a traced pass, the untraced
// reference lane that ran the same queries beside it, and the set-up splits.
func batchPerLayer(res *result, spec batchSpec, m *mount, ref, p *pass, setups []setupTimes) {
	setSetupLayers(res, setups)

	n := float64(len(p.all))
	wall := seconds(p.totalWall())
	res.set("core.visits", float64(p.stats.Visits))
	res.set("core.pushes", float64(p.stats.Pushes))
	res.set("core.visits_per_edge", ratio(float64(p.stats.Visits), float64(p.edges)))
	res.set("core.useful_visit_frac", ratio(float64(p.reached), float64(p.stats.Visits)))
	res.set("core.ns_per_visit", ratio(wall*1e9, float64(p.stats.Visits)))
	res.set("core.max_queue", float64(p.stats.MaxQueue))
	res.set("core.peak_outstanding", float64(p.stats.PeakOutstanding))
	res.set("core.imbalance", ratio(p.imbalance, n))
	res.set("core.allocs_per_query", ratio(float64(p.mallocs), n))
	res.set("core.cc_ms_p50", median(durationsMs(p.wall[kCC])))
	res.set("core.hybrid_bfs_ms_p50", median(p.hybridMs))
	res.set("core.hybrid_bottomup_phases", float64(p.hybridBU))
	res.set("proc.alloc_mb_per_query", ratio(float64(p.allocated)/(1<<20), n))
	// The two lanes ran the same queries back to back and differ only by
	// the decorators: the median of the per-query time ratios is the tracing
	// overhead, and it shrugs off the odd query the host stalled.
	pairs := make([]float64, len(p.all))
	for i := range pairs {
		pairs[i] = ratio(seconds(p.all[i]), seconds(ref.all[i]))
	}
	res.set("trace.overhead_frac", median(pairs)-1)

	if m.dev == nil {
		return
	}
	dev := p.after.dev
	reads := float64(dev.Reads - p.before.dev.Reads)
	bytes := float64(dev.BytesRead - p.before.dev.BytesRead)
	res.set("ssd.reads", reads)
	res.set("ssd.bytes_read", bytes)
	res.set("ssd.avg_read_bytes", ratio(bytes, reads))
	res.set("ssd.peak_inflight", float64(dev.PeakReads))
	res.set("ssd.reads_per_kedge", ratio(reads*1000, float64(p.edges)))
	res.set("ssd.bytes_per_edge", ratio(bytes, float64(p.edges)))
	below := p.after.below.minus(p.before.below)
	res.set("ssd.busy_s", seconds(below.model))
	res.set("ssd.util", ratio(seconds(below.model), float64(m.dev.Profile().Channels)*wall))
	res.set("ssd.wait_s", seconds(below.wait-below.model))

	if m.cache != nil {
		above := p.after.above.minus(p.before.above)
		hits := float64(p.after.hits - p.before.hits)
		misses := float64(p.after.misses - p.before.misses)
		res.set("sem.store_calls", float64(above.calls))
		res.set("sem.store_wait_s", seconds(above.wait))
		res.set("sem.cache_wait_s", seconds(above.wait-below.wait))
		res.set("sem.cache_hit_frac", ratio(hits, hits+misses))
		res.set("sem.read_amp", ratio(float64(below.bytes), float64(above.bytes)))
	}
	if spec.engine.Prefetch > 1 {
		ps, b := p.after.prefetch, p.before.prefetch
		spans := float64(ps.Spans - b.Spans)
		res.set("sem.prefetch_spans", spans)
		res.set("sem.prefetch_v_per_span", ratio(float64(ps.Vertices-b.Vertices), spans))
		res.set("sem.prefetch_consumed_frac", ratio(float64(ps.Consumed-b.Consumed), float64(ps.Consumed-b.Consumed+ps.Abandoned-b.Abandoned)))
		res.set("sem.prefetch_dedup_spans", float64(ps.DedupSpans-b.DedupSpans))
		res.set("sem.prefetch_gap_frac", ratio(float64(ps.GapBytes-b.GapBytes), float64(ps.SpanBytes-b.SpanBytes)))
	}
}
