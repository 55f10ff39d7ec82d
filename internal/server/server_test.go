package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mount"
	"repro/internal/ssd"
)

// testStores builds the fixture the suite shares: one weighted RMAT graph
// served both in-memory and semi-externally (the default cached mount on a
// fast simulated device), plus a small undirected graph for CC.
type testStores struct {
	im         *graph.CSR[uint32]
	sem        Graph
	undirected *graph.CSR[uint32]
}

// fastDevice is a device model with no latency worth waiting for.
var fastDevice = ssd.Profile{Name: "test-fast", Channels: 64, ReadLatency: 20 * time.Microsecond}

// semGraph serializes g (shards ways, with in-edge data when inEdges) and
// mounts it semi-externally the way MountGraph does, minus the files.
func semGraph(tb testing.TB, name string, g *graph.CSR[uint32], shards int, opt mount.Options, inEdges bool) Graph {
	tb.Helper()
	backings, err := mount.WriteBackings(g, mount.WriteOptions{Shards: shards, InEdges: inEdges})
	if err != nil {
		tb.Fatal(err)
	}
	opt.SEM, opt.Profile = true, fastDevice
	m, err := mount.Graph(backings, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return Graph{Name: name, Adj: m.Adj, Storage: "sem", Mount: m}
}

func buildStores(tb testing.TB, scale int) *testStores {
	tb.Helper()
	directed, err := gen.RMAT[uint32](scale, 8, gen.RMATA, 7)
	if err != nil {
		tb.Fatal(err)
	}
	weighted, err := gen.UniformWeights(directed, 11)
	if err != nil {
		tb.Fatal(err)
	}
	undirected, err := gen.RMATUndirected[uint32](scale-1, 8, gen.RMATA, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return &testStores{
		im:         weighted,
		sem:        semGraph(tb, "sem", weighted, 1, mount.Options{}, false),
		undirected: undirected,
	}
}

func newTestServer(tb testing.TB, cfg Config, st *testStores) *httptest.Server {
	tb.Helper()
	s := New(cfg)
	for _, g := range []Graph{
		{Name: "im", Adj: st.im, Storage: "im"},
		st.sem,
		{Name: "undirected", Adj: st.undirected, Storage: "im"},
	} {
		if err := s.AddGraph(g); err != nil {
			tb.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return ts
}

func postQuery(tb testing.TB, ts *httptest.Server, req queryRequest) (*http.Response, []byte) {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		tb.Fatal(err)
	}
	return resp, out.Bytes()
}

func decodeQuery(tb testing.TB, data []byte) *queryResponse {
	tb.Helper()
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		tb.Fatalf("decode %q: %v", data, err)
	}
	return &qr
}

func TestHealthzAndGraphs(t *testing.T) {
	ts := newTestServer(t, Config{Engine: core.Config{Workers: 8}}, buildStores(t, 8))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		Graphs []struct {
			Name     string `json:"name"`
			Vertices uint64 `json:"vertices"`
			Edges    uint64 `json:"edges"`
			Weighted bool   `json:"weighted"`
			Storage  string `json:"storage"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(inv.Graphs) != 3 {
		t.Fatalf("got %d graphs, want 3", len(inv.Graphs))
	}
	// Sorted by name: im, sem, undirected. im and sem are the same graph
	// through different storage layers.
	if inv.Graphs[0].Name != "im" || inv.Graphs[1].Name != "sem" {
		t.Fatalf("graph order = %q, %q", inv.Graphs[0].Name, inv.Graphs[1].Name)
	}
	if inv.Graphs[0].Vertices != inv.Graphs[1].Vertices || inv.Graphs[0].Edges != inv.Graphs[1].Edges {
		t.Fatalf("im (%d v, %d e) and sem (%d v, %d e) disagree",
			inv.Graphs[0].Vertices, inv.Graphs[0].Edges, inv.Graphs[1].Vertices, inv.Graphs[1].Edges)
	}
	if !inv.Graphs[1].Weighted || inv.Graphs[1].Storage != "sem" {
		t.Fatalf("sem graph: weighted=%v storage=%q", inv.Graphs[1].Weighted, inv.Graphs[1].Storage)
	}
}

func TestQueryValidation(t *testing.T) {
	st := buildStores(t, 8)
	ts := newTestServer(t, Config{Engine: core.Config{Workers: 4}}, st)
	n := st.im.NumVertices()

	cases := []struct {
		name string
		req  queryRequest
		want int
	}{
		{"unknown graph", queryRequest{Graph: "nope", Kernel: "bfs"}, http.StatusNotFound},
		{"unknown kernel", queryRequest{Graph: "im", Kernel: "pagerank"}, http.StatusBadRequest},
		{"source out of range", queryRequest{Graph: "im", Kernel: "bfs", Source: n}, http.StatusBadRequest},
		{"target out of range", queryRequest{Graph: "im", Kernel: "bfs", Targets: []uint64{n + 7}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postQuery(t, ts, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: expected JSON error body, got %q", tc.name, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query = %d, want 405", resp.StatusCode)
	}
}

func TestQueryTargetsMatchStandalone(t *testing.T) {
	st := buildStores(t, 8)
	ts := newTestServer(t, Config{Engine: core.Config{Workers: 8}}, st)

	want, err := core.SSSP[uint32](st.im, 1, core.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	targets := []uint64{0, 1, 2, 100, 200}
	resp, body := postQuery(t, ts, queryRequest{Graph: "sem", Kernel: "sssp", Source: 1, Targets: targets})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if len(qr.Targets) != len(targets) {
		t.Fatalf("got %d target states, want %d", len(qr.Targets), len(targets))
	}
	for _, ts := range qr.Targets {
		v := uint32(ts.Vertex)
		if ts.Reached != want.Reached(v) {
			t.Fatalf("vertex %d: reached=%v, standalone says %v", v, ts.Reached, want.Reached(v))
		}
		if ts.Reached && ts.Value != want.Dist[v] {
			t.Fatalf("vertex %d: dist=%d, standalone says %d", v, ts.Value, want.Dist[v])
		}
	}
	if qr.Stats.Visits == 0 || qr.Stats.Pruned == 0 || qr.Stats.Workers != 8 {
		t.Fatalf("stats = %+v, want visits > 0, pruned > 0 and 8 workers", qr.Stats)
	}
}

func TestQueryCCSummary(t *testing.T) {
	st := buildStores(t, 8)
	ts := newTestServer(t, Config{Engine: core.Config{Workers: 8}}, st)

	want, err := core.CC[uint32](st.undirected, core.Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postQuery(t, ts, queryRequest{Graph: "undirected", Kernel: "cc", Source: 99})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	qr := decodeQuery(t, body)
	if qr.Summary == nil {
		t.Fatal("cc query returned no summary")
	}
	if qr.Summary.Components != want.NumComponents() {
		t.Fatalf("components = %d, want %d", qr.Summary.Components, want.NumComponents())
	}
	if qr.Summary.Reached != st.undirected.NumVertices() {
		t.Fatalf("cc reached = %d, want all %d vertices", qr.Summary.Reached, st.undirected.NumVertices())
	}
	if qr.Source != 0 {
		t.Fatalf("cc source normalized to %d, want 0", qr.Source)
	}
}

func TestResultCache(t *testing.T) {
	st := buildStores(t, 8)
	ts := newTestServer(t, Config{Engine: core.Config{Workers: 8}}, st)
	req := queryRequest{Graph: "im", Kernel: "bfs", Source: 3}

	resp, body := postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold query: %d %s", resp.StatusCode, body)
	}
	cold := decodeQuery(t, body)
	if cold.Cached {
		t.Fatal("first query reported cached=true")
	}

	resp, body = postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d %s", resp.StatusCode, body)
	}
	warm := decodeQuery(t, body)
	if !warm.Cached {
		t.Fatal("second identical query not served from cache")
	}
	if warm.Stats.Visits != cold.Stats.Visits {
		t.Fatalf("cached stats diverged: %d visits vs %d", warm.Stats.Visits, cold.Stats.Visits)
	}

	// no_cache must bypass both lookup and fill.
	req.NoCache = true
	resp, body = postQuery(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no_cache query: %d %s", resp.StatusCode, body)
	}
	if decodeQuery(t, body).Cached {
		t.Fatal("no_cache query reported cached=true")
	}

	metrics := fetchMetrics(t, ts)
	cache := metrics["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits < 1 {
		t.Fatalf("cache hits = %v, want >= 1", hits)
	}
	if entries := cache["entries"].(float64); entries < 1 {
		t.Fatalf("cache entries = %v, want >= 1", entries)
	}
}

func fetchMetrics(tb testing.TB, ts *httptest.Server) map[string]any {
	tb.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestConcurrentSSSPSharedSEM is the issue's acceptance test: 32 concurrent
// SSSP queries against one shared semi-external store, each under a
// per-query deadline enforced through core cancellation, all answered
// correctly, with /metrics accounting for every one of them.
func TestConcurrentSSSPSharedSEM(t *testing.T) {
	st := buildStores(t, 8)
	ts := newTestServer(t, Config{
		Admit:        admit.Config{Slots: 32},
		CacheEntries: -1, // disabled: every query must traverse the store
		Engine:       core.Config{Workers: 8},
	}, st)

	const queries = 32
	sources := make([]uint32, queries)
	wants := make([]*core.SSSPResult[uint32], queries)
	for i := range sources {
		sources[i] = uint32(i * 5)
		want, err := core.SSSP[uint32](st.im, sources[i], core.Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postQuery(t, ts, queryRequest{
				Graph:     "sem",
				Kernel:    "sssp",
				Source:    uint64(sources[i]),
				Targets:   []uint64{0, 17, 101, 255},
				TimeoutMs: 20_000,
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			qr := decodeQuery(t, body)
			for _, tgt := range qr.Targets {
				v := uint32(tgt.Vertex)
				if tgt.Reached != wants[i].Reached(v) {
					errs <- fmt.Errorf("query %d vertex %d: reached=%v, want %v", i, v, tgt.Reached, wants[i].Reached(v))
					return
				}
				if tgt.Reached && tgt.Value != wants[i].Dist[v] {
					errs <- fmt.Errorf("query %d vertex %d: dist=%d, want %d", i, v, tgt.Value, wants[i].Dist[v])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := fetchMetrics(t, ts)
	if total := m["queries_total"].(float64); total != queries {
		t.Fatalf("queries_total = %v, want %d", total, queries)
	}
	if inFlight := m["queries_in_flight"].(float64); inFlight != 0 {
		t.Fatalf("queries_in_flight = %v after drain, want 0", inFlight)
	}
	lat := m["latency"].(map[string]any)
	if count := lat["count"].(float64); count != queries {
		t.Fatalf("latency count = %v, want %d", count, queries)
	}
	dev := m["graphs"].(map[string]any)["sem"].(map[string]any)["device"].(map[string]any)
	if reads := dev["reads"].(float64); reads == 0 {
		t.Fatal("device reads = 0; queries did not touch the SEM store")
	}
}

// slowServerAdj delays every adjacency read so a traversal can be caught
// in flight by deadlines and admission limits.
type slowServerAdj struct {
	*graph.CSR[uint32]
	delay time.Duration
}

func (s *slowServerAdj) Neighbors(v uint32, scratch *graph.Scratch[uint32]) ([]uint32, []graph.Weight, error) {
	time.Sleep(s.delay)
	return s.CSR.Neighbors(v, scratch)
}

func slowStores(tb testing.TB, delay time.Duration) *slowServerAdj {
	return &slowServerAdj{CSR: buildStores(tb, 8).im, delay: delay}
}

func TestQueryDeadlineReturns504(t *testing.T) {
	slow := slowStores(t, 2*time.Millisecond)
	s := New(Config{CacheEntries: -1, Engine: core.Config{Workers: 2}})
	if err := s.AddGraph(Graph{Name: "slow", Adj: slow}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0, TimeoutMs: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	m := fetchMetrics(t, ts)
	if n := m["queries_deadline_exceeded"].(float64); n != 1 {
		t.Fatalf("queries_deadline_exceeded = %v, want 1", n)
	}
}

func TestAdmissionShedsLoad(t *testing.T) {
	slow := slowStores(t, time.Millisecond)
	s := New(Config{
		Admit:        admit.Config{Slots: 1, MaxQueue: 1, QueueTimeout: 5 * time.Millisecond},
		CacheEntries: -1,
		Engine:       core.Config{Workers: 2},
	})
	if err := s.AddGraph(Graph{Name: "slow", Adj: slow}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One slot, one queue seat, short queue timeout: a burst of slow queries
	// must see some mix of 429 (queue full) and 503 (queue timeout).
	const burst = 8
	var wg sync.WaitGroup
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postQuery(t, ts, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0, TimeoutMs: 10_000})
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Fatal("no query got through admission")
	}
	if shed == 0 {
		t.Fatal("burst of 8 over a 1-slot/1-seat server shed nothing")
	}
	m := fetchMetrics(t, ts)
	rejected := m["queries_rejected"].(float64)
	timedOut := m["queries_queue_timeout"].(float64)
	if rejected+timedOut == 0 {
		t.Fatalf("metrics: rejected=%v queue_timeout=%v, want their sum > 0", rejected, timedOut)
	}
}

func TestAddGraphValidation(t *testing.T) {
	st := buildStores(t, 8)
	s := New(Config{})
	if err := s.AddGraph(Graph{Name: "", Adj: st.im}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.AddGraph(Graph{Name: "g"}); err == nil {
		t.Fatal("nil adjacency accepted")
	}
	if err := s.AddGraph(Graph{Name: "g", Adj: st.im}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddGraph(Graph{Name: "g", Adj: st.im}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestConcurrentQueriesShardedSEM serves a 3-shard SEM mount to many
// concurrent readers: results must match the in-memory baseline, /v1/graphs
// must advertise the shard count, and /metrics must show every member device
// reading (the hash partition's fan-out observed end to end).
func TestConcurrentQueriesShardedSEM(t *testing.T) {
	st := buildStores(t, 8)
	const shards = 3
	s := New(Config{
		Admit:        admit.Config{Slots: 16},
		CacheEntries: -1, // disabled: every query must traverse the stores
		Engine:       core.Config{Workers: 8},
	})
	if err := s.AddGraph(semGraph(t, "sharded", st.im, shards, mount.Options{}, false)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const queries = 24
	sources := make([]uint32, queries)
	wants := make([]*core.SSSPResult[uint32], queries)
	for i := range sources {
		sources[i] = uint32(i * 7)
		want, err := core.SSSP[uint32](st.im, sources[i], core.Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	var wg sync.WaitGroup
	errs := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postQuery(t, ts, queryRequest{
				Graph:     "sharded",
				Kernel:    "sssp",
				Source:    uint64(sources[i]),
				Targets:   []uint64{0, 17, 101, 255},
				TimeoutMs: 20_000,
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			qr := decodeQuery(t, body)
			for _, tgt := range qr.Targets {
				v := uint32(tgt.Vertex)
				if tgt.Reached != wants[i].Reached(v) {
					errs <- fmt.Errorf("query %d vertex %d: reached=%v, want %v", i, v, tgt.Reached, wants[i].Reached(v))
					return
				}
				if tgt.Reached && tgt.Value != wants[i].Dist[v] {
					errs <- fmt.Errorf("query %d vertex %d: dist=%d, want %d", i, v, tgt.Value, wants[i].Dist[v])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Graphs []struct {
			Name    string `json:"name"`
			Storage string `json:"storage"`
			Shards  int    `json:"shards"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Graphs) != 1 || listing.Graphs[0].Name != "sharded" ||
		listing.Graphs[0].Storage != "sem" || listing.Graphs[0].Shards != shards {
		t.Fatalf("/v1/graphs = %+v, want one sem graph with %d shards", listing.Graphs, shards)
	}

	m := fetchMetrics(t, ts)
	gv := m["graphs"].(map[string]any)["sharded"].(map[string]any)
	if got := gv["shards"].(float64); got != shards {
		t.Fatalf("metrics shards = %v, want %d", got, shards)
	}
	if reads := gv["device"].(map[string]any)["reads"].(float64); reads == 0 {
		t.Fatal("aggregate device reads = 0; queries did not touch the SEM stores")
	}
	perShard := gv["shard_devices"].([]any)
	if len(perShard) != shards {
		t.Fatalf("shard_devices has %d entries, want %d", len(perShard), shards)
	}
	for k, sv := range perShard {
		if reads := sv.(map[string]any)["reads"].(float64); reads == 0 {
			t.Fatalf("shard %d device reads = 0; the fan-out never reached it", k)
		}
	}
	if bc := gv["shard_block_caches"].([]any); len(bc) != shards {
		t.Fatalf("shard_block_caches has %d entries, want %d", len(bc), shards)
	}
	bc := gv["block_cache"].(map[string]any)
	if bc["blocks_fetched"].(float64) < bc["misses"].(float64) || bc["inflight_hw"].(float64) < 1 {
		t.Fatalf("block_cache miss-path counters = %v", bc)
	}
	if _, ok := bc["pinned_hw"]; !ok || len(bc) != 7 {
		t.Fatalf("block_cache = %v, want the six cache counters and pinned_hw", bc)
	}
}

// TestDirectionServing covers the hybrid serving path end to end: one server
// holds an in-memory and a semi-external hybrid mount of graphs with
// different degree shapes, each answers BFS with the serial baseline's levels
// under the thresholds its own mount derived, the phase counters reach the
// query stats and /metrics "direction", and a store without in-edges is
// refused when it is mounted.
func TestDirectionServing(t *testing.T) {
	st := buildStores(t, 8)
	// A directed graph written with an in-edge section and decoded into
	// memory, an undirected one left on a device, and a sparse directed one
	// (2 edges a vertex) on a device: the first two take the driver, the third
	// has the capability and keeps the asynchronous kernel.
	imBackings, err := mount.WriteBackings(st.im, mount.WriteOptions{InEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	im, err := mount.Graph(imBackings, mount.Options{})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid[uint32](16, 16)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.CSR[uint32]{"im": st.im, "sem": st.undirected, "grid": grid}

	s := New(Config{Engine: core.Config{Workers: 4}})
	for _, g := range []Graph{
		{Name: "im", Adj: im.Adj, Storage: "im", Mount: im},
		semGraph(t, "sem", st.undirected, 1, mount.Options{}, false),
		semGraph(t, "grid", grid, 1, mount.Options{}, true),
	} {
		if err := s.AddGraph(g); err != nil {
			t.Fatal(err)
		}
	}

	// Each graph's pool runs its own mount's configuration at the server's
	// worker count, and the degree shapes derive different thresholds —
	// which one server-wide engine config could not express.
	for name := range graphs {
		g := s.graph(name)
		got, want := g.pool.Config(), g.Mount.Engine
		if got.Direction != core.DirectionAuto || got.Workers != 4 || got.Alpha != want.Alpha || got.Beta != want.Beta || want.Alpha <= 0 || want.Beta <= 0 {
			t.Errorf("%s runs under %+v, its mount derived %+v", name, got, want)
		}
	}
	if a, b := s.graph("im").pool.Config(), s.graph("grid").pool.Config(); a.Alpha == b.Alpha && a.Beta == b.Beta {
		t.Errorf("RMAT and grid got the same thresholds alpha=%d beta=%d", a.Alpha, a.Beta)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, g := range graphs {
		want, err := baseline.SerialBFS[uint32](g, 0)
		if err != nil {
			t.Fatal(err)
		}
		targets := make([]uint64, g.NumVertices())
		for v := range targets {
			targets[v] = uint64(v)
		}
		resp, body := postQuery(t, ts, queryRequest{Graph: name, Kernel: "bfs", Source: 0, Targets: targets})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", name, resp.StatusCode, body)
		}
		qr := decodeQuery(t, body)
		if phases := qr.Stats.TopDownPhases + qr.Stats.BottomUpPhases; (phases > 0) != (name != "grid") || (qr.Stats.PeakFrontier > 0) != (name != "grid") {
			t.Errorf("%s: phases=%d peak frontier=%d; want the driver on im and sem, the asynchronous kernel on grid", name, phases, qr.Stats.PeakFrontier)
		}
		for _, tgt := range qr.Targets {
			if wantReached := want[tgt.Vertex] != graph.InfDist; tgt.Reached != wantReached || (wantReached && tgt.Value != want[tgt.Vertex]) {
				t.Fatalf("%s: vertex %d reached=%v level=%d, serial BFS says %d", name, tgt.Vertex, tgt.Reached, tgt.Value, want[tgt.Vertex])
			}
		}
	}

	dir := fetchMetrics(t, ts)["direction"].(map[string]any)
	if dir["topdown_phases"].(float64)+dir["bottomup_phases"].(float64) == 0 || dir["peak_frontier"].(float64) == 0 {
		t.Fatalf("metrics direction counters empty: %v", dir)
	}
	// The three BFS queries took nothing from any engine pool but grid's.
	if pool := fetchMetrics(t, ts)["engine_pool"].(map[string]any); pool["acquired"].(float64) != 1 {
		t.Errorf("engine_pool = %v, want one acquisition (the grid's asynchronous BFS)", pool)
	}

	// /v1/graphs says where each graph's in-edges come from and which BFS runs.
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var inv struct {
		Graphs []struct {
			Name      string
			InEdges   string `json:"in_edges"`
			BFSDriver string `json:"bfs_driver"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, g := range inv.Graphs {
		got[g.Name] = g.InEdges + " " + g.BFSDriver
	}
	want := map[string]string{"im": "section direction-switching", "sem": "symmetric direction-switching", "grid": "section asynchronous"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/graphs in_edges and bfs_driver = %v, want %v", got, want)
	}
}
