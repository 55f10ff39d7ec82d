package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric of BENCHMARK.json. The tables below are the
// program's copy of that file's end_to_end and per_layer lists; the smoke test
// asserts the two agree, so a metric cannot be emitted without being declared
// or declared without being emitted.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run (-trace 0) reports: the costs a
// user of the system pays. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"edges_per_s", "1/s"},
	{"bfs_p50_ms", "ms"},
	{"sssp_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
}

// perLayer lists the metrics a traced run (-trace 1) reports, named
// <module>.<metric>. A layer a workload does not use reports zero.
var perLayer = []metricDef{
	// set-up, split by the module that does the work
	{"gen.build_s", "s"},
	{"sem.write_s", "s"},
	{"sem.open_s", "s"},
	{"graph.load_s", "s"},
	// pq probes
	{"pq.push_pop_ns", "ns"},
	{"pq.popbatch_ns", "ns"},
	// core: counters of the traced queries and two probes
	{"core.visits", "count"},
	{"core.pushes", "count"},
	{"core.visits_per_edge", "ratio"},
	{"core.useful_visit_frac", "ratio"},
	{"core.ns_per_visit", "ns"},
	{"core.max_queue", "count"},
	{"core.peak_outstanding", "count"},
	{"core.imbalance", "ratio"},
	{"core.allocs_per_query", "count"},
	{"core.cc_ms_p50", "ms"},
	{"core.hybrid_bfs_ms_p50", "ms"},
	{"core.hybrid_bottomup_phases", "count"},
	{"core.dispatch_ns", "ns"},
	{"core.push_ns", "ns"},
	// sem block cache
	{"sem.store_calls", "count"},
	{"sem.store_wait_s", "s"},
	{"sem.cache_wait_s", "s"},
	{"sem.cache_hit_frac", "ratio"},
	{"sem.read_amp", "ratio"},
	{"sem.cache_hit_ns", "ns"},
	{"sem.cache_miss_us", "us"},
	{"sem.neighbors_ns", "ns"},
	// sem prefetcher and the graph codec
	{"sem.prefetch_spans", "count"},
	{"sem.prefetch_v_per_span", "ratio"},
	{"sem.prefetch_consumed_frac", "ratio"},
	{"sem.prefetch_dedup_spans", "count"},
	{"sem.prefetch_gap_frac", "ratio"},
	{"graph.decode_mb_s", "MB/s"},
	// simulated device
	{"ssd.reads", "count"},
	{"ssd.bytes_read", "bytes"},
	{"ssd.avg_read_bytes", "bytes"},
	{"ssd.peak_inflight", "count"},
	{"ssd.busy_s", "s"},
	{"ssd.util", "ratio"},
	{"ssd.wait_s", "s"},
	{"ssd.reads_per_kedge", "ratio"},
	{"ssd.bytes_per_edge", "bytes"},
	{"ssd.overhead_us", "us"},
	// query service
	{"server.requests", "count"},
	{"server.ok", "count"},
	{"server.shed", "count"},
	{"server.rejected_429", "count"},
	{"server.timeout_504", "count"},
	{"server.result_cache_hit_frac", "ratio"},
	{"server.hit_ms_p50", "ms"},
	{"server.engine_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.admission_wait_ms_mean", "ms"},
	{"server.pool_reuse_frac", "ratio"},
	{"server.cached_query_us", "us"},
	{"server.tiny_query_us", "us"},
	// load generator, process and tracing itself
	{"load.lateness_ms_p95", "ms"},
	{"load.goodput_frac", "ratio"},
	{"load.over_p90_ms", "ms"},
	{"load.over_backlog_ratio", "ratio"},
	{"load.max_ok_rate", "1/s"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.alloc_mb_per_query", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// metricValue is one reported number, in the contract's wire shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// samples states how many timed samples the medians and percentiles
	// were taken over; printed with the metrics, not part of the wire shape.
	samples string
	// timings are the raw measurements behind an untraced run's end-to-end
	// metrics, kept so that the measuring processes of one run can be pooled.
	timings *timings
}

// timings are the raw measurements every end-to-end metric is computed from.
// An untraced run measures in several processes, one after the other, because
// much of the run-to-run spread is between processes (measured: the same
// binary on the same inputs reads medians up to 20 % apart from one 4 s
// process to the next); pooling the samples of all of them averages that out.
type timings struct {
	// SetupS holds one full set-up time per set-up performed, in seconds.
	SetupS []float64 `json:"setup_s"`
	// KernelMs holds the time of every timed operation by kernel, in ms: a
	// batch query's time-to-solution, or the latency from due time of a
	// serve-open request that a traversal answered.
	KernelMs [numKernels][]float64 `json:"kernel_ms"`
	// Edges is the traversed edges of those operations, as the serial
	// baseline counts them.
	Edges uint64 `json:"edges"`
}

func (t *timings) add(o *timings) {
	t.SetupS = append(t.SetupS, o.SetupS...)
	for k := range t.KernelMs {
		t.KernelMs[k] = append(t.KernelMs[k], o.KernelMs[k]...)
	}
	t.Edges += o.Edges
}

// endToEnd fills the end-to-end metrics, the same way for every workload.
func (t *timings) endToEnd(res *result) {
	var all []float64
	var total float64
	for _, ms := range t.KernelMs {
		all = append(all, ms...)
		for _, x := range ms {
			total += x
		}
	}
	res.set("setup_s", median(t.SetupS))
	res.set("edges_per_s", ratio(float64(t.Edges), total/1000))
	res.set("bfs_p50_ms", median(t.KernelMs[kBFS]))
	res.set("sssp_p50_ms", median(t.KernelMs[kSSSP]))
	res.set("query_p90_ms", quantile(all, 0.90))
	res.samples = fmt.Sprintf("setups=%d bfs=%d sssp=%d cc=%d", len(t.SetupS), len(t.KernelMs[kBFS]), len(t.KernelMs[kSSSP]), len(t.KernelMs[kCC]))
	res.timings = t
}

// newResult pre-fills every metric of defs with zero, so a workload only sets
// the ones its layers produce.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	return r
}

// set records a value for a declared metric; an undeclared name is a bug in
// the benchmark, not in the program under test.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	m.Value = v
	r.Metrics[name] = m
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
