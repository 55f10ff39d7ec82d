package server

import (
	"expvar"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/mount"
	"repro/internal/ssd"
)

// Observability is expvar-shaped (the issue's stdlib-only constraint): the
// server assembles a private expvar.Map — not published to the global
// registry, so many servers can coexist in one process (tests, embedding) —
// and /metrics renders it as JSON. Latency is a fixed-bound log-spaced
// histogram; p50/p99 are read as bucket upper bounds, which is the standard
// histogram-quantile estimate and needs no per-request allocation.

// latencyBounds are the histogram bucket upper bounds. Log-spaced from 500µs
// to 30s: queries span in-memory sub-millisecond BFS to multi-second SEM
// traversals on the slowest simulated device.
var latencyBounds = []time.Duration{
	500 * time.Microsecond,
	time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
	30 * time.Second,
}

// histogram is a lock-free fixed-bucket latency histogram.
type histogram struct {
	counts []atomic.Uint64 // len(latencyBounds)+1; last bucket = overflow
	sumUs  atomic.Uint64
	n      atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(latencyBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumUs.Add(uint64(d.Microseconds()))
	h.n.Add(1)
}

// quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the nearest-rank observation, the ⌈q·n⌉-th smallest. Zero
// when nothing was observed; the overflow bucket reports the largest bound.
func (h *histogram) quantile(q float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i >= len(latencyBounds) {
				return latencyBounds[len(latencyBounds)-1]
			}
			return latencyBounds[i]
		}
	}
	return latencyBounds[len(latencyBounds)-1]
}

// mean reports the average observed latency.
func (h *histogram) mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumUs.Load()/n) * time.Microsecond
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// buildVars assembles the server's /metrics document. Every leaf is an
// expvar.Func closure over live counters, so each scrape sees a fresh
// snapshot with no bookkeeping on the query path beyond the counters
// themselves.
func (s *Server) buildVars() *expvar.Map {
	m := new(expvar.Map).Init()
	m.Set("queries_total", expvar.Func(func() any { return s.queriesTotal.Load() }))
	m.Set("queries_in_flight", expvar.Func(func() any { return s.admit.InFlight() }))
	m.Set("queue_depth", expvar.Func(func() any { return s.admit.QueueDepth() }))
	m.Set("queries_rejected", expvar.Func(func() any { return s.admit.rejects[admit.QueueFull].Load() }))
	m.Set("queries_queue_timeout", expvar.Func(func() any { return s.admit.rejects[admit.QueueTimeout].Load() }))
	m.Set("queries_deadline_exceeded", expvar.Func(func() any { return s.queriesDeadline.Load() }))
	m.Set("queries_canceled", expvar.Func(func() any { return s.queriesCanceled.Load() }))
	m.Set("queries_failed", expvar.Func(func() any { return s.queriesFailed.Load() }))
	m.Set("queries_deadline_shed", expvar.Func(func() any { return s.admit.rejects[admit.DeadlineShed].Load() }))
	m.Set("queries_rate_limited", expvar.Func(func() any { return s.queriesRateLimited.Load() }))
	m.Set("admission", expvar.Func(func() any {
		classes := make(map[string]any, admit.NumClasses)
		for c := admit.Class(0); c < admit.NumClasses; c++ {
			classes[c.String()] = map[string]any{
				"accepted": s.admit.classes[c].accepted.Load(),
				"rejected": s.admit.classes[c].rejected.Load(),
			}
		}
		return map[string]any{
			"policy":        s.cfg.Admit.Order,
			"shedding":      s.cfg.Admit.Shedding,
			"queue_full":    s.admit.rejects[admit.QueueFull].Load(),
			"queue_timeout": s.admit.rejects[admit.QueueTimeout].Load(),
			"deadline_shed": s.admit.rejects[admit.DeadlineShed].Load(),
			"queue_wait": map[string]any{
				"count":   s.admit.waitHist.n.Load(),
				"mean_ms": ms(s.admit.waitHist.mean()),
				"p50_ms":  ms(s.admit.waitHist.quantile(0.50)),
				"p99_ms":  ms(s.admit.waitHist.quantile(0.99)),
			},
			"classes": classes,
		}
	}))
	m.Set("rate_limit", expvar.Func(func() any {
		if s.limit == nil {
			return map[string]any{"enabled": false, "rejected": s.queriesRateLimited.Load()}
		}
		allowed, rejected := s.limit.Counters()
		return map[string]any{
			"enabled":  true,
			"rate":     s.cfg.RateLimit.Rate,
			"burst":    s.cfg.RateLimit.Burst,
			"allowed":  allowed,
			"rejected": rejected,
		}
	}))
	m.Set("latency", expvar.Func(func() any {
		return map[string]any{
			"count":   s.hist.n.Load(),
			"mean_ms": ms(s.hist.mean()),
			"p50_ms":  ms(s.hist.quantile(0.50)),
			"p99_ms":  ms(s.hist.quantile(0.99)),
		}
	}))
	m.Set("cache", expvar.Func(func() any {
		if s.cache == nil {
			return map[string]any{"enabled": false}
		}
		hits, misses, evictions := s.cache.Counters()
		return map[string]any{
			"enabled":   true,
			"entries":   s.cache.Len(),
			"hits":      hits,
			"misses":    misses,
			"evictions": evictions,
		}
	}))
	m.Set("direction", expvar.Func(func() any {
		return map[string]any{
			"topdown_phases":  s.tdPhases.Load(),
			"bottomup_phases": s.buPhases.Load(),
			"switches":        s.dirSwitches.Load(),
			"peak_frontier":   s.peakFrontier.Load(),
		}
	}))
	m.Set("engine_pool", expvar.Func(func() any {
		// One pool per graph, summed.
		var idle int
		var reused, acquired uint64
		s.mu.RLock()
		for _, g := range s.graphs {
			r, a := g.pool.Reuses()
			idle, reused, acquired = idle+g.pool.Idle(), reused+r, acquired+a
		}
		s.mu.RUnlock()
		return map[string]any{
			"idle":     idle,
			"reused":   reused,
			"acquired": acquired,
		}
	}))
	m.Set("graphs", expvar.Func(func() any {
		s.mu.RLock()
		defer s.mu.RUnlock()
		out := make(map[string]any, len(s.graphs))
		for name, g := range s.graphs {
			gv := map[string]any{"storage": g.Storage}
			if g.shards() > 1 {
				gv["shards"] = g.shards()
			}
			if g.Mount != nil {
				storageVars(gv, g.Mount.IO())
			}
			out[name] = gv
		}
		return out
	}))
	return m
}

// storageVars renders one mount's I/O snapshot into its graphs.<name> entry:
// nothing for an in-memory mount, the prefetch block only on a mount that
// merged a sweep.
func storageVars(gv map[string]any, io mount.IO) {
	if len(io.Shards) == 0 {
		return
	}
	gv["device"] = deviceVars(io.Device)
	if io.Cached {
		// inflight_waits are the hits that found their block still under I/O;
		// blocks_fetched over misses is the mean span; inflight_hw is blocks
		// held beyond the budget.
		gv["block_cache"] = map[string]any{"hits": io.CacheHits, "misses": io.CacheMisses,
			"inflight_waits": io.Cache.Waits, "blocks_fetched": io.Cache.Blocks,
			"evictions": io.Cache.Evictions, "inflight_hw": io.Cache.InflightHW}
	}
	if len(io.Shards) > 1 {
		// Per-shard counters make the fan-out visible: a healthy sharded
		// mount shows every member device reading.
		devices := make([]map[string]any, len(io.Shards))
		caches := make([]map[string]any, len(io.Shards))
		for i, sh := range io.Shards {
			devices[i] = deviceVars(sh.Device)
			caches[i] = map[string]any{"hits": sh.CacheHits, "misses": sh.CacheMisses}
		}
		gv["shard_devices"] = devices
		if io.Cached {
			gv["shard_block_caches"] = caches
		}
	}
	if ps := io.Prefetch; ps.Windows > 0 {
		gv["prefetch"] = map[string]any{
			"windows":     ps.Windows,
			"spans":       ps.Spans,
			"span_bytes":  ps.SpanBytes,
			"dedup_spans": ps.DedupSpans,
			"dedup_bytes": ps.DedupBytes,
		}
	}
}

// deviceVars renders one device-stats snapshot for /metrics.
func deviceVars(st ssd.Stats) map[string]any {
	return map[string]any{
		"reads":          st.Reads,
		"writes":         st.Writes,
		"bytes_read":     st.BytesRead,
		"bytes_written":  st.BytesWritten,
		"max_read_bytes": st.MaxReadBytes,
		"peak_reads":     st.PeakReads,
	}
}
