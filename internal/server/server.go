// Package server is the long-lived traversal query service layered on the
// asynchronous engine: one process loads one or more graphs — in-memory CSRs
// or semi-external stores on a simulated flash device — as shared read-only
// stores and answers BFS / SSSP / CC queries over HTTP.
//
// The serving pipeline, request by request:
//
//	decode/validate → result-cache lookup → per-tenant rate limit →
//	SLO-aware admission → engine-pool traversal under a per-query
//	deadline → snapshot → cache fill → render
//
// Requests carry a tenant identity (X-Tenant) and an SLO class
// (X-SLO-Class: gold/silver/bronze/batch); the admission queue is ordered
// by class and remaining deadline budget, requests whose budget cannot
// survive the estimated queue wait are shed immediately, and each tenant's
// request rate is bounded by a token bucket. Those decisions are
// internal/admit's, one state machine shared with the load simulator;
// admission.go and ratelimit.go drive it with goroutines and wall time.
//
// Three mechanisms make it safe to put the batch engine behind traffic:
//
//   - cancellation (core.Config.Context): every query runs under a deadline
//     derived from Config.QueryTimeout and the HTTP request context, so a
//     slow traversal or a disconnected client stops all engine workers
//     promptly instead of leaking goroutines;
//   - admission control (admission.go): concurrent traversals are capped and
//     excess requests queue briefly, bounding pressure on the SEM device's
//     channel pool (429 when the queue overflows, 503 when the wait times
//     out);
//   - the engine pool (core.EnginePool): per-worker queues, outboxes, and
//     scratch recycle across queries, so steady-state serving allocates only
//     result arrays.
//
// Everything is stdlib-only: net/http, encoding/json, expvar.
//
// Endpoints:
//
//	POST /v1/query   {"graph":"g","kernel":"sssp","source":1234,"targets":[5,6]}
//	GET  /v1/graphs  inventory of loaded graphs
//	GET  /healthz    liveness probe
//	GET  /metrics    expvar JSON: in-flight, queue depth, latency p50/p99,
//	                 cache and device counters
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mount"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// Admit is the admission policy: slots, wait-queue capacity, timeout and
	// order, deadline shedding. New cannot report an error, so values
	// Admit.Validate would reject select the defaults instead.
	Admit admit.Config
	// QueryTimeout is the per-query traversal deadline; a request may lower
	// (never raise) it via timeout_ms. Default 30s.
	QueryTimeout time.Duration
	// RateLimit configures per-tenant token buckets applied before
	// admission; the zero value disables limiting. Graphs may override it
	// via Graph.RateLimit.
	RateLimit RateLimitConfig
	// CacheEntries is the result-cache capacity in snapshots; 0 selects the
	// default 64, negative disables caching.
	CacheEntries int
	// Engine configures the traversal engine of every graph added without a
	// Mount. A mounted graph runs under its own Mount.Engine — the storage
	// stack decides the sort key, sweep width, direction and thresholds — and
	// takes only Workers from here. Context is ignored: the server installs a
	// per-query context.
	Engine core.Config
}

func (c *Config) normalize() {
	a := &c.Admit
	a.Slots, a.MaxQueue, a.QueueTimeout = max(a.Slots, 0), max(a.MaxQueue, 0), max(a.QueueTimeout, 0)
	if a.Order != admit.OrderFIFO {
		a.Order = admit.OrderPriority
	}
	if a.Shedding != admit.ShedOff {
		a.Shedding = admit.ShedDeadline
	}
	_ = a.Validate() // only fills defaults now
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	c.RateLimit.Normalize()
	if c.CacheEntries == 0 {
		c.CacheEntries = 64
	}
	// The engine config's Context never applies here: runQuery installs a
	// per-query context derived from the request deadline.
	c.Engine.Context = nil
}

// Graph is one read-only store served by the Server. Adj must be safe for
// concurrent readers — all back ends are: the in-memory CSR is immutable,
// the semi-external store's reads share only the device, block cache, and
// prefetcher, each of which is concurrency-safe, and the shard router keeps
// all mutable state in per-worker scratches.
type Graph struct {
	Name    string
	Adj     graph.Adjacency[uint32]
	Storage string // "im" or "sem"; informational
	// RateLimit overrides the server-wide per-tenant rate limit for queries
	// against this graph; nil uses Config.RateLimit.
	RateLimit *RateLimitConfig
	// Mount is the storage stack behind Adj when internal/mount built it
	// (MountGraph): its Engine is the configuration this graph's queries run
	// under, its IO snapshot is the graph's /metrics entry. Nil for a bare
	// adjacency, which runs under Config.Engine and reports its storage only.
	Mount *mount.Mounted

	// limiter is the materialized per-graph bucket scope (nil = use the
	// server-wide limiter).
	limiter *limiter
	// pool runs this graph's queries, under Mount.Engine at the server's
	// worker count, or under Config.Engine for a bare adjacency. It is the
	// graph's own: a recycled resource set is only valid under the
	// Workers/SemiSort pair it was built for, and that pair is per graph.
	pool *core.EnginePool[uint32]
}

// shards is the width of the shard set behind a mounted graph, 0 otherwise.
func (g *Graph) shards() int {
	if g.Mount == nil {
		return 0
	}
	return g.Mount.Shards
}

func (g *Graph) weighted() bool {
	if w, ok := g.Adj.(interface{ Weighted() bool }); ok {
		return w.Weighted()
	}
	return false
}

func (g *Graph) numEdges() uint64 {
	if m, ok := g.Adj.(interface{ NumEdges() uint64 }); ok {
		return m.NumEdges()
	}
	return 0
}

// Server answers traversal queries over shared read-only graph stores.
// Create with New, register stores with AddGraph, and mount Handler on an
// http.Server. Safe for concurrent use.
type Server struct {
	cfg   Config
	admit *admission
	cache *resultCache // nil when disabled
	hist  *histogram

	mu     sync.RWMutex
	graphs map[string]*Graph

	limit *limiter // server-wide rate-limit scope; nil when disabled

	queriesTotal       atomic.Uint64
	queriesFailed      atomic.Uint64
	queriesCanceled    atomic.Uint64
	queriesDeadline    atomic.Uint64
	queriesRateLimited atomic.Uint64

	// Direction-driver counters, accumulated across every BFS that ran the
	// phase driver (any graph that can serve in-edges; zero otherwise).
	tdPhases     atomic.Uint64
	buPhases     atomic.Uint64
	dirSwitches  atomic.Uint64
	peakFrontier atomic.Uint64 // high-water mark across queries

	vars *expvar.Map
	mux  *http.ServeMux
}

// New creates a Server with no graphs loaded.
func New(cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:    cfg,
		admit:  newAdmission(cfg.Admit),
		hist:   newHistogram(),
		limit:  newLimiter(cfg.RateLimit),
		graphs: make(map[string]*Graph),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries)
	}
	s.vars = s.buildVars()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	return s
}

// AddGraph registers a store under g.Name. Graphs may be added while the
// server is live; replacing or removing one is not supported (stores are
// immutable and cached results never go stale).
func (s *Server) AddGraph(g Graph) error {
	if g.Name == "" {
		return errors.New("server: graph name must be non-empty")
	}
	if g.Adj == nil {
		return fmt.Errorf("server: graph %q has no adjacency store", g.Name)
	}
	if g.Storage == "" {
		g.Storage = "im"
	}
	if g.RateLimit != nil {
		g.limiter = newLimiter(*g.RateLimit)
	}
	engine := s.cfg.Engine
	if g.Mount != nil {
		engine = g.Mount.Engine
		engine.Workers = s.cfg.Engine.Workers
	}
	g.pool = core.NewEnginePool[uint32](engine)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.graphs[g.Name]; dup {
		return fmt.Errorf("server: graph %q already loaded", g.Name)
	}
	s.graphs[g.Name] = &g
	return nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) graph(name string) *Graph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.graphs[name]
}

// --- request/response shapes ---

type queryRequest struct {
	Graph  string `json:"graph"`
	Kernel string `json:"kernel"` // bfs | sssp | cc
	Source uint64 `json:"source"` // ignored for cc
	// Targets selects vertices whose state is returned; empty returns a
	// whole-traversal summary instead.
	Targets []uint64 `json:"targets,omitempty"`
	// TimeoutMs lowers the per-query deadline below Config.QueryTimeout.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (read and fill).
	NoCache bool `json:"no_cache,omitempty"`
}

type targetState struct {
	Vertex  uint64  `json:"vertex"`
	Reached bool    `json:"reached"`
	Value   uint64  `json:"value"` // level (bfs), distance (sssp), component id (cc)
	Parent  *uint64 `json:"parent,omitempty"`
}

type querySummary struct {
	Vertices   uint64 `json:"vertices"`
	Reached    uint64 `json:"reached"`
	MaxValue   uint64 `json:"max_value"` // largest finite label
	Components uint64 `json:"components,omitempty"`
}

type queryStats struct {
	Visits          uint64 `json:"visits"`
	Pushes          uint64 `json:"pushes"`
	Pruned          uint64 `json:"pruned"` // proposals dropped at the sender, never queued
	MaxQueue        int    `json:"max_queue"`
	PeakOutstanding int64  `json:"peak_outstanding"`
	Workers         int    `json:"workers"`
	// Direction-driver counters; present only when the BFS ran the phase
	// driver (its graph can serve in-edges).
	TopDownPhases     int    `json:"topdown_phases,omitempty"`
	BottomUpPhases    int    `json:"bottomup_phases,omitempty"`
	DirectionSwitches int    `json:"direction_switches,omitempty"`
	PeakFrontier      uint64 `json:"peak_frontier,omitempty"`
}

type queryResponse struct {
	Graph     string        `json:"graph"`
	Kernel    string        `json:"kernel"`
	Source    uint64        `json:"source"`
	Cached    bool          `json:"cached"`
	ElapsedMs float64       `json:"elapsed_ms"` // traversal time of the (possibly cached) run
	Stats     queryStats    `json:"stats"`
	Targets   []targetState `json:"targets,omitempty"`
	Summary   *querySummary `json:"summary,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best effort: the status line is already on the wire, so an encode
	// failure here can only mean the client went away mid-response.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.vars.String())
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	type graphInfo struct {
		Name     string `json:"name"`
		Vertices uint64 `json:"vertices"`
		Edges    uint64 `json:"edges"`
		Weighted bool   `json:"weighted"`
		Storage  string `json:"storage"`
		Shards   int    `json:"shards,omitempty"`
		// Where the graph's reverse adjacency comes from, and the BFS
		// implementation core chooses from that and the storage.
		InEdges   string `json:"in_edges"`
		BFSDriver string `json:"bfs_driver"`
	}
	s.mu.RLock()
	infos := make([]graphInfo, 0, len(s.graphs))
	for _, g := range s.graphs {
		infos = append(infos, graphInfo{
			Name:     g.Name,
			Vertices: g.Adj.NumVertices(),
			Edges:    g.numEdges(),
			Weighted: g.weighted(),
			Storage:  g.Storage,
			Shards:   g.shards(),

			InEdges:   graph.InEdgeSource(g.Adj),
			BFSDriver: core.BFSDriver(g.Adj, g.pool.Config()),
		})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	g := s.graph(req.Graph)
	if g == nil {
		writeError(w, http.StatusNotFound, "unknown graph %q (see /v1/graphs)", req.Graph)
		return
	}
	switch req.Kernel {
	case "bfs", "sssp":
		if req.Source >= g.Adj.NumVertices() {
			writeError(w, http.StatusBadRequest, "source %d out of range for %d vertices", req.Source, g.Adj.NumVertices())
			return
		}
	case "cc":
		req.Source = 0 // cc has no source; normalize so the cache key is canonical
	default:
		writeError(w, http.StatusBadRequest, "unknown kernel %q (want bfs, sssp, or cc)", req.Kernel)
		return
	}
	for _, t := range req.Targets {
		if t >= g.Adj.NumVertices() {
			writeError(w, http.StatusBadRequest, "target %d out of range for %d vertices", t, g.Adj.NumVertices())
			return
		}
	}

	s.queriesTotal.Add(1)
	// Every result-determining input of a validated request: the graph name
	// stands for its storage and engine configuration, direction included.
	key := cacheKey{graph: req.Graph, kernel: req.Kernel, source: req.Source, weighted: g.weighted()}
	if s.cache != nil && !req.NoCache {
		if res, ok := s.cache.get(key); ok {
			s.render(w, &req, res, true)
			return
		}
	}

	// Serving policy inputs: tenant identity, SLO class, and the absolute
	// deadline. The deadline is fixed before admission so queue wait spends
	// the same budget the traversal runs under — that is what makes
	// deadline-aware shedding mean something.
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = DefaultTenant
	}
	class := admit.ParseClass(r.Header.Get(ClassHeader))
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	deadline := time.Now().Add(timeout)

	// Rate limiting sits between the cache and admission: cached replies
	// cost no traversal and consume no tokens, everything else draws from
	// the tenant's bucket (the graph's own scope when configured).
	lim := g.limiter
	if lim == nil {
		lim = s.limit
	}
	if !lim.allow(tenant) {
		s.queriesRateLimited.Add(1)
		s.reject(w, admit.RateLimited, tenant)
		return
	}

	if d, err := s.admit.acquire(r.Context(), class, deadline); err != nil {
		s.queriesCanceled.Add(1) // client went away while queued
		return
	} else if d != admit.Run {
		s.reject(w, d, tenant)
		return
	}

	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()

	start := time.Now()
	res, err := s.runQuery(ctx, g, req.Kernel, uint32(req.Source))
	elapsed := time.Since(start)
	s.admit.release(elapsed)
	s.hist.observe(elapsed)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.queriesDeadline.Add(1)
			writeError(w, http.StatusGatewayTimeout, "query exceeded its %v deadline", timeout)
		case errors.Is(err, context.Canceled):
			s.queriesCanceled.Add(1) // client disconnected; nothing to write
		default:
			s.queriesFailed.Add(1)
			writeError(w, http.StatusInternalServerError, "traversal failed: %v", err)
		}
		return
	}
	res.elapsed = elapsed
	if s.cache != nil && !req.NoCache {
		s.cache.put(key, res)
	}
	s.render(w, &req, res, false)
}

// reject answers a request the serving policy turned away: the reason's
// status, the reason itself in RejectReasonHeader.
func (s *Server) reject(w http.ResponseWriter, d admit.Decision, tenant string) {
	w.Header().Set(RejectReasonHeader, d.String())
	writeError(w, RejectStatus(d), "server: tenant %q not admitted: %s", tenant, d)
}

// runQuery executes one traversal on the graph's engine pool and snapshots
// its vertex state. CC component ids are widened into the shared label array
// with the NoVertex sentinel mapped to InfDist, so "reached" means the same
// thing for every kernel.
func (s *Server) runQuery(ctx context.Context, g *Graph, kernel string, src uint32) (*queryResult, error) {
	switch kernel {
	case "bfs":
		r, err := g.pool.BFS(ctx, g.Adj, src)
		if err != nil {
			return nil, err
		}
		s.noteDirection(r.Stats)
		return &queryResult{labels: r.Level, parent: r.Parent, stats: r.Stats}, nil
	case "sssp":
		r, err := g.pool.SSSP(ctx, g.Adj, src)
		if err != nil {
			return nil, err
		}
		return &queryResult{labels: r.Dist, parent: r.Parent, stats: r.Stats}, nil
	case "cc":
		r, err := g.pool.CC(ctx, g.Adj)
		if err != nil {
			return nil, err
		}
		labels := make([]graph.Dist, len(r.ID))
		no := graph.NoVertex[uint32]()
		for i, id := range r.ID {
			if id == no {
				labels[i] = graph.InfDist
			} else {
				labels[i] = graph.Dist(id)
			}
		}
		return &queryResult{labels: labels, stats: r.Stats}, nil
	}
	return nil, fmt.Errorf("server: unknown kernel %q", kernel)
}

// noteDirection folds one BFS run's phase counters into the server-wide
// direction metrics. Runs on the pure asynchronous kernel report no phases
// and are skipped.
func (s *Server) noteDirection(st core.Stats) {
	if st.TopDownPhases == 0 && st.BottomUpPhases == 0 {
		return
	}
	s.tdPhases.Add(uint64(st.TopDownPhases))
	s.buPhases.Add(uint64(st.BottomUpPhases))
	s.dirSwitches.Add(uint64(st.DirectionSwitches))
	for {
		cur := s.peakFrontier.Load()
		if st.PeakFrontier <= cur || s.peakFrontier.CompareAndSwap(cur, st.PeakFrontier) {
			return
		}
	}
}

// render writes the response for one request from a (possibly shared)
// snapshot: the requested targets' states, or a whole-traversal summary.
func (s *Server) render(w http.ResponseWriter, req *queryRequest, res *queryResult, cached bool) {
	resp := queryResponse{
		Graph:     req.Graph,
		Kernel:    req.Kernel,
		Source:    req.Source,
		Cached:    cached,
		ElapsedMs: ms(res.elapsed),
		Stats: queryStats{
			Visits:            res.stats.Visits,
			Pushes:            res.stats.Pushes,
			Pruned:            res.stats.Pruned,
			MaxQueue:          res.stats.MaxQueue,
			PeakOutstanding:   res.stats.PeakOutstanding,
			Workers:           res.stats.Workers,
			TopDownPhases:     res.stats.TopDownPhases,
			BottomUpPhases:    res.stats.BottomUpPhases,
			DirectionSwitches: res.stats.DirectionSwitches,
			PeakFrontier:      res.stats.PeakFrontier,
		},
	}
	if len(req.Targets) > 0 {
		no := graph.NoVertex[uint32]()
		resp.Targets = make([]targetState, len(req.Targets))
		for i, v := range req.Targets {
			ts := targetState{Vertex: v, Reached: res.labels[v] != graph.InfDist}
			if ts.Reached {
				ts.Value = res.labels[v]
				if res.parent != nil && res.parent[v] != no {
					p := uint64(res.parent[v])
					ts.Parent = &p
				}
			}
			resp.Targets[i] = ts
		}
	} else {
		sum := &querySummary{Vertices: uint64(len(res.labels))}
		for v, l := range res.labels {
			if l == graph.InfDist {
				continue
			}
			sum.Reached++
			if l > sum.MaxValue {
				sum.MaxValue = l
			}
			// A CC component's id is its minimum member, so roots (label ==
			// own index) count components in one pass.
			if req.Kernel == "cc" && l == graph.Dist(v) {
				sum.Components++
			}
		}
		resp.Summary = sum
	}
	writeJSON(w, http.StatusOK, resp)
}
