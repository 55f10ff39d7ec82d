package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/sem"
	"repro/internal/server"
)

// serve-open is the one workload with the query service on the path: a real
// net/http server over an in-memory mount, driven open-loop (independent
// users: arrivals do not wait for replies) from a seeded Poisson schedule with
// Zipf sources, a bfs/sssp/cc mix and two tenants with different deadlines.

// serveSpec sizes the workload. An untraced run spends all of its time at
// baseRate, which every gating metric is measured at. A traced run spends
// baseShare of -seconds there and overShare at overRate, which is above
// capacity and exercises the backlog rule; that step feeds per-layer metrics
// only.
type serveSpec struct {
	scale              int
	baseRate, overRate float64
	baseShare          float64
	overShare          float64
	warmup             int // closed-loop requests before the first step
	setups             int // set-ups per measuring process; setup_s is the median of all
	procs              int // measuring processes of an untraced run
	zipfS              float64
	// limit is L: a step passes when its p90 from due time is at most L and
	// its backlog does not grow.
	limit time.Duration
}

var serveOpen = serveSpec{
	scale: 12, baseRate: 20, overRate: 320, baseShare: 0.70, overShare: 0.10,
	warmup: 32, setups: 3, procs: 6, zipfS: 1.1, limit: 300 * time.Millisecond,
}

func (s serveSpec) smokeSized() serveSpec {
	s.scale, s.warmup, s.setups, s.overShare, s.baseShare = 10, 8, 1, 0, 1
	return s
}

const (
	graphName = "g"
	// maxLateness is the dispatcher wake-up lateness (p95) above which a
	// step that otherwise passes is not trusted: the generator, not the
	// server, was the bottleneck.
	maxLateness = 5 * time.Millisecond
)

var serveTenants = []load.Tenant{
	{Name: "gold", Class: "gold", Weight: 1, Deadline: 300 * time.Millisecond},
	{Name: "batch", Class: "batch", Weight: 3, Deadline: 2 * time.Second},
}

// service is one running server under test and what was measured mounting it.
type service struct {
	base  string // http://127.0.0.1:port
	srv   *server.Server
	http  *http.Server
	done  chan error // Serve's return
	times setupTimes
}

// startService performs one full set-up: generate the graph, write it, mount
// it in memory exactly as cmd/serve does, and serve it on a loopback port.
func startService(spec serveSpec, path string) (*service, *graph.CSR[uint32], error) {
	s := &service{}
	t0 := time.Now()
	g, err := buildGraph(spec.scale, gen.RMATA, graphSeed)
	if err != nil {
		return nil, nil, err
	}
	s.times.gen = time.Since(t0)

	t0 = time.Now()
	if err := writeGraphFile(path, g, sem.WriteConfig{}); err != nil {
		return nil, nil, err
	}
	s.times.write = time.Since(t0)

	t0 = time.Now()
	mounted, err := server.MountGraph(server.MountSpec{Name: graphName, Path: path}, server.MountOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("serve-open: mount: %w", err)
	}
	s.times.load = time.Since(t0)

	t0 = time.Now()
	s.srv = server.New(server.Config{Engine: core.Config{Workers: 16}})
	if err := s.srv.AddGraph(mounted); err != nil {
		return nil, nil, fmt.Errorf("serve-open: add graph: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("serve-open: listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.done = make(chan error, 1)
	go func() { s.done <- s.http.Serve(ln) }()
	s.times.open = time.Since(t0)
	return s, g, nil
}

// stop shuts the server down and waits for its accept loop to end.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serveInputs is everything the workload derives from the seed.
type serveInputs struct {
	warmup, base, over []load.Request
	// baseBudget is how long the base step plays; its schedule is longer
	// than that by idleStretch, because skipped idle time makes room.
	baseBudget time.Duration
	oracle     *oracle
}

// idleStretch is how many times the requests of its duration a base schedule
// holds. Skipping idle time plays a schedule faster by one over the share of
// the time the server is busy, about a quarter at the base rate.
const idleStretch = 8

// makeServeInputs draws the three schedules. load.BuildSchedule maps Zipf rank
// straight to vertex id; ranks are remapped here onto the vertices that have
// an edge (in id order), so the hot keys are never isolated vertices whose
// traversal is a no-op.
func makeServeInputs(spec serveSpec, g *graph.CSR[uint32], seed uint64, budget time.Duration, trace bool) (*serveInputs, error) {
	baseShare, overShare := 1.0, 0.0
	if trace {
		baseShare, overShare = spec.baseShare, spec.overShare
	}
	var sources []uint32
	for v := uint32(0); uint64(v) < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			sources = append(sources, v)
		}
	}
	if len(sources) == 0 {
		return nil, errors.New("serve-open: graph has no vertex with an edge")
	}
	schedule := func(seed uint64, rate float64, n int) ([]load.Request, error) {
		if n == 0 {
			return nil, nil
		}
		reqs, err := load.BuildSchedule(&load.Config{
			Graph: graphName, Requests: n, Rate: rate, Arrival: "poisson",
			Source: "zipf", ZipfS: spec.zipfS, Vertices: uint64(len(sources)),
			Mix:     map[string]float64{"bfs": 6, "sssp": 3, "cc": 1},
			Tenants: serveTenants, Seed: seed,
		})
		if err != nil {
			return nil, fmt.Errorf("serve-open: schedule: %w", err)
		}
		for i := range reqs {
			if reqs[i].Kernel != "cc" {
				reqs[i].Source = uint64(sources[reqs[i].Source])
			}
		}
		return reqs, nil
	}
	in := &serveInputs{}
	var err error
	if in.warmup, err = schedule(seed+2, spec.baseRate, spec.warmup); err != nil {
		return nil, err
	}
	in.baseBudget = time.Duration(baseShare * float64(budget))
	if in.base, err = schedule(seed, spec.baseRate, int(spec.baseRate*in.baseBudget.Seconds()*idleStretch)); err != nil {
		return nil, err
	}
	if in.over, err = schedule(seed+1, spec.overRate, int(spec.overRate*overShare*budget.Seconds())); err != nil {
		return nil, err
	}
	var qs []query
	for _, reqs := range [][]load.Request{in.warmup, in.base, in.over} {
		for _, r := range reqs {
			qs = append(qs, requestQuery(r))
		}
	}
	if in.oracle, err = newOracle(g, qs); err != nil {
		return nil, err
	}
	return in, nil
}

func requestQuery(r load.Request) query {
	for k, name := range kernelNames {
		if name == r.Kernel {
			return query{Kernel: kernel(k), Source: uint32(r.Source)}
		}
	}
	panic("benchmark: schedule produced kernel " + r.Kernel)
}

// outcome is the judged reply to one scheduled request.
type outcome struct {
	req      load.Request
	due      time.Time
	late     time.Duration // dispatcher wake-up after the due time
	queued   time.Duration // due time to the moment a connection took it
	latency  time.Duration // due time to reply: what the user waited
	code     int           // not 200 with a nil err: a documented shed or reject
	cached   bool
	engineMs float64 // the reply's elapsed_ms, visits and pushes: the engine's
	visits   uint64  // own account of the traversal that produced the answer
	pushes   uint64
	err      error // transport error, unexpected status, or wrong answer
}

// ok reports whether the request was answered 200 with the right answer.
func (o *outcome) ok() bool { return o.code == http.StatusOK && o.err == nil }

// good reports whether the request was answered within its tenant's deadline,
// counted from the due time.
func (o *outcome) good() bool { return o.ok() && o.latency <= o.req.Deadline }

// felt is the latency a percentile should see: a request that was refused or
// failed counts as having missed every limit, so it weighs at least its
// deadline.
func (o *outcome) felt() time.Duration {
	if o.ok() {
		return o.latency
	}
	return max(o.latency, o.req.Deadline)
}

// client issues the requests of one pass over at most conns persistent
// connections, remembering which cache keys it has already asked for.
type client struct {
	http   *http.Client
	base   string
	conns  int
	oracle *oracle

	mu   sync.Mutex
	seen map[query]bool
}

func newClient(base string, or *oracle) *client {
	conns := runtime.NumCPU()
	return &client{
		http:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		base:   base,
		conns:  conns,
		oracle: or,
		seen:   make(map[query]bool),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

type queryBody struct {
	Graph     string `json:"graph"`
	Kernel    string `json:"kernel"`
	Source    uint64 `json:"source"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
}

type queryReply struct {
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Stats     struct {
		Visits uint64 `json:"visits"`
		Pushes uint64 `json:"pushes"`
	} `json:"stats"`
	Summary *struct {
		Reached    uint64 `json:"reached"`
		MaxValue   uint64 `json:"max_value"`
		Components uint64 `json:"components"`
	} `json:"summary"`
}

// documentedRefusals are the X-Reject-Reason values the server promises on a
// 429 or 503; with a 504 (deadline spent while running) they are load
// shedding working as designed, not failures.
var documentedRefusals = map[string]bool{"queue-full": true, "queue-timeout": true, "deadline-shed": true, "rate-limit": true}

// do sends one request and judges the reply against the oracle.
func (c *client) do(ctx context.Context, r load.Request) (code int, reply queryReply, err error) {
	q := requestQuery(r)
	c.mu.Lock()
	askedBefore := c.seen[q]
	c.seen[q] = true
	c.mu.Unlock()

	body, err := json.Marshal(queryBody{Graph: graphName, Kernel: r.Kernel, Source: r.Source, TimeoutMs: r.Deadline.Milliseconds()})
	if err != nil {
		return 0, reply, err
	}
	ctx, cancel := context.WithTimeout(ctx, r.Deadline+10*time.Second)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return 0, reply, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(server.TenantHeader, r.Tenant)
	hr.Header.Set(server.ClassHeader, r.Class)
	resp, err := c.http.Do(hr)
	if err != nil {
		return 0, reply, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, reply, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGatewayTimeout:
		return resp.StatusCode, reply, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if documentedRefusals[resp.Header.Get(server.RejectReasonHeader)] {
			return resp.StatusCode, reply, nil
		}
		fallthrough
	default:
		return resp.StatusCode, reply, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return resp.StatusCode, reply, fmt.Errorf("decode reply: %w", err)
	}
	want := c.oracle.answer(q)
	switch {
	case reply.Summary == nil:
		err = errors.New("reply has no summary")
	case reply.Summary.Reached != want.reached || reply.Summary.MaxValue != want.maxLabel || reply.Summary.Components != want.components:
		err = fmt.Errorf("summary %+v, baseline says reached=%d max=%d components=%d", *reply.Summary, want.reached, want.maxLabel, want.components)
	case reply.Cached && !askedBefore:
		err = errors.New("reply marked cached for a key never asked before")
	}
	return resp.StatusCode, reply, err
}

// judged runs do and files the result as an outcome timed from due.
func (c *client) judged(ctx context.Context, r load.Request, due time.Time, late time.Duration) outcome {
	o := outcome{req: r, due: due, late: late, queued: time.Since(due)}
	var reply queryReply
	o.code, reply, o.err = c.do(ctx, r)
	o.latency = time.Since(due)
	o.cached, o.engineMs, o.visits, o.pushes = reply.Cached, reply.ElapsedMs, reply.Stats.Visits, reply.Stats.Pushes
	if o.err != nil {
		fmt.Fprintf(os.Stderr, "serve-open: request %d (%s from %d) failed: %v\n", r.N, r.Kernel, r.Source, o.err)
	}
	return o
}

// closedLoop sends the requests one at a time, ignoring their due times: the
// warm-up that fills the result cache with the hot keys and lets lazy set-up
// (connections, engine pool) finish before anything is timed.
func (c *client) closedLoop(ctx context.Context, reqs []load.Request) []outcome {
	out := make([]outcome, 0, len(reqs))
	for _, r := range reqs {
		if ctx.Err() != nil {
			break
		}
		out = append(out, c.judged(ctx, r, time.Now(), 0))
	}
	return out
}

// openLoop plays a schedule for at most budget (all of it when budget is 0):
// a single dispatcher (this goroutine) waits until each request is due and
// hands it to a fixed set of senders, one per connection. A request waits in
// the hand-off queue while every connection is busy, and that wait is part of
// its latency because latency is timed from the due time, not from the send.
//
// Idle time is skipped: when every request sent so far has been answered and
// the next one is not due yet, the rest of the schedule is moved up so that it
// is due now. What a request waits for is decided by the requests that arrive
// while others are in flight, and those keep their spacing, so the latencies
// are the ones the schedule gives in real time; but a run holds several times
// the requests, and the host never sees the idle processors it takes away and
// hands back late (measured: the same requests read 15 % slower, and spread
// twice as wide from run to run, when the gaps are waited out).
func (c *client) openLoop(ctx context.Context, reqs []load.Request, budget time.Duration) []outcome {
	type job struct {
		i    int
		due  time.Time
		late time.Duration
	}
	// Sized to the number of sends: the dispatcher must never block on the
	// senders, or a slow server would slow the arrivals down.
	jobs := make(chan job, len(reqs))
	out := make([]outcome, len(reqs))
	var inflight atomic.Int32
	drained := make(chan struct{}, 1) // a token whenever inflight returns to 0
	var wg sync.WaitGroup
	for s := 0; s < c.conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.i] = c.judged(ctx, reqs[j.i], j.due, j.late)
				if inflight.Add(-1) == 0 {
					select {
					case drained <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	begin := time.Now()
	start, sent := begin, 0
dispatch:
	for i, r := range reqs {
		if budget > 0 && time.Since(begin) >= budget {
			break
		}
		due := start.Add(r.At)
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			if inflight.Load() == 0 {
				start = start.Add(-wait)
				due = start.Add(r.At)
				break
			}
			select {
			case <-time.After(wait):
			case <-drained:
			case <-ctx.Done():
				break dispatch
			}
		}
		inflight.Add(1)
		jobs <- job{i, due, max(0, time.Since(due))}
		sent = i + 1
	}
	close(jobs)
	wg.Wait()
	return out[:sent]
}

// scrape fetches the server's /metrics document.
func (c *client) scrape(ctx context.Context) (serverVars, error) {
	var v serverVars
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return v, err
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return v, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("decode /metrics: %w", err)
	}
	return v, nil
}

// serverVars is the part of /metrics the benchmark reads.
type serverVars struct {
	QueriesTotal    uint64 `json:"queries_total"`
	DeadlineExceed  uint64 `json:"queries_deadline_exceeded"`
	RateLimited     uint64 `json:"queries_rate_limited"`
	QueriesRejected uint64 `json:"queries_rejected"`
	Admission       struct {
		DeadlineShed uint64 `json:"deadline_shed"`
		QueueWait    struct {
			MeanMs float64 `json:"mean_ms"`
		} `json:"queue_wait"`
	} `json:"admission"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	EnginePool struct {
		Reused   uint64 `json:"reused"`
		Acquired uint64 `json:"acquired"`
	} `json:"engine_pool"`
}

// servePass is what one play of the schedules against one server measured.
type servePass struct {
	warmup, base, over []outcome
	before, after      serverVars
}

func runServePass(ctx context.Context, spec serveSpec, svc *service, in *serveInputs, rec *recorder) (*servePass, error) {
	c := newClient(svc.base, in.oracle)
	defer c.close()
	p := &servePass{}
	p.warmup = c.closedLoop(ctx, in.warmup)
	var err error
	if p.before, err = c.scrape(ctx); err != nil {
		return nil, err
	}
	p.base = c.openLoop(ctx, in.base, in.baseBudget)
	p.over = c.openLoop(ctx, in.over, 0)
	if p.after, err = c.scrape(ctx); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	p.warnLateGenerator(spec)
	if rec != nil {
		id := int32(0)
		for _, step := range []struct {
			name string
			out  []outcome
		}{{"base", p.base}, {"over", p.over}} {
			for i := range step.out {
				o := &step.out[i]
				id++
				rec.add("request."+step.name+"."+o.req.Kernel, id, 0, o.due, o.due.Add(o.latency))
				rec.add("client.queue", 0, id, o.due, o.due.Add(o.queued))
			}
		}
	}
	return p, nil
}

// sampleCounts states how many base-step requests each gating percentile was
// taken over.
func (p *servePass) sampleCounts() string {
	var n [numKernels]int
	miss := traversed(p.base)
	for _, o := range miss {
		n[requestQuery(o.req).Kernel]++
	}
	return fmt.Sprintf("base=%d traversed=%d bfs=%d sssp=%d cc=%d over=%d", len(p.base), len(miss), n[kBFS], n[kSSSP], n[kCC], len(p.over))
}

// tally counts a pass's operations and failures for the contract's
// attempted/failed fields. A refusal is not a failure.
func (p *servePass) tally() (attempted, failed int) {
	for _, step := range [][]outcome{p.warmup, p.base, p.over} {
		for i := range step {
			attempted++
			if step[i].err != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

// traversed selects the requests of a step a traversal answered (or that were
// refused or failed, which count as misses): the population the gating
// latency metrics are taken over. Replies served from the result cache are a
// different, ~1000x cheaper operation, and at Zipf 1.1 they are about half the
// traffic, so a percentile over both would sit on the boundary between the
// two and flip with the seed.
func traversed(step []outcome) []*outcome {
	var out []*outcome
	for i := range step {
		if o := &step[i]; !(o.ok() && o.cached) {
			out = append(out, o)
		}
	}
	return out
}

// timings hands over the measurements of the base step's traversed requests
// for pooling.
func (p *servePass) timings(in *serveInputs, setups []setupTimes) *timings {
	t := &timings{}
	for _, s := range setups {
		t.SetupS = append(t.SetupS, seconds(s.total()))
	}
	for _, o := range traversed(p.base) {
		q := requestQuery(o.req)
		t.KernelMs[q.Kernel] = append(t.KernelMs[q.Kernel], millis(o.felt()))
		if o.ok() {
			t.Edges += in.oracle.answer(q).edges
		}
	}
	return t
}

// stepVerdict judges one fixed-rate step: its p90 from due time over every
// request, and whether the backlog grew (mean latency of the last quarter of
// the step's requests against the first quarter).
type stepVerdict struct {
	p90Ms, backlog, latenessP95Ms float64
	ok                            bool
}

func judgeStep(step []outcome, limit time.Duration) stepVerdict {
	var v stepVerdict
	if len(step) == 0 {
		return v
	}
	all := make([]float64, len(step))
	late := make([]float64, len(step))
	for i := range step {
		all[i] = millis(step[i].felt())
		late[i] = millis(step[i].late)
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return ratio(s, float64(len(xs)))
	}
	q := max(1, len(all)/4)
	v.p90Ms = quantile(all, 0.90)
	v.backlog = ratio(mean(all[len(all)-q:]), mean(all[:q]))
	v.latenessP95Ms = quantile(late, 0.95)
	v.ok = v.p90Ms <= millis(limit) && v.backlog <= 2
	return v
}

func servePerLayer(res *result, spec serveSpec, in *serveInputs, p *servePass, setups []setupTimes) {
	setSetupLayers(res, setups)

	var ok, good int
	var hitMs, engineMs, overheadMs []float64
	var visits, pushes, edges uint64
	var engineTotalMs float64
	for i := range p.base {
		o := &p.base[i]
		if o.good() {
			good++
		}
		if !o.ok() {
			continue
		}
		ok++
		if o.cached {
			hitMs = append(hitMs, millis(o.latency))
			continue
		}
		engineMs = append(engineMs, o.engineMs)
		overheadMs = append(overheadMs, millis(o.latency-o.queued)-o.engineMs)
		visits += o.visits
		pushes += o.pushes
		edges += in.oracle.answer(requestQuery(o.req)).edges
		engineTotalMs += o.engineMs
	}
	res.set("core.visits", float64(visits))
	res.set("core.pushes", float64(pushes))
	res.set("core.visits_per_edge", ratio(float64(visits), float64(edges)))
	res.set("core.ns_per_visit", ratio(engineTotalMs*1e6, float64(visits)))
	for i := range p.over {
		if p.over[i].ok() {
			ok++
		}
	}
	d := func(after, before uint64) float64 { return float64(after - before) }
	hits, misses := d(p.after.Cache.Hits, p.before.Cache.Hits), d(p.after.Cache.Misses, p.before.Cache.Misses)
	res.set("server.requests", d(p.after.QueriesTotal, p.before.QueriesTotal))
	res.set("server.ok", float64(ok))
	res.set("server.shed", d(p.after.Admission.DeadlineShed, p.before.Admission.DeadlineShed))
	res.set("server.rejected_429", d(p.after.QueriesRejected, p.before.QueriesRejected)+d(p.after.RateLimited, p.before.RateLimited))
	res.set("server.timeout_504", d(p.after.DeadlineExceed, p.before.DeadlineExceed))
	res.set("server.result_cache_hit_frac", ratio(hits, hits+misses))
	res.set("server.hit_ms_p50", median(hitMs))
	res.set("server.engine_ms_p50", median(engineMs))
	res.set("server.overhead_ms_p50", median(overheadMs))
	res.set("server.admission_wait_ms_mean", p.after.Admission.QueueWait.MeanMs)
	res.set("server.pool_reuse_frac", ratio(float64(p.after.EnginePool.Reused), float64(p.after.EnginePool.Acquired)))

	base, over := judgeStep(p.base, spec.limit), judgeStep(p.over, spec.limit)
	res.set("load.lateness_ms_p95", base.latenessP95Ms)
	res.set("load.goodput_frac", ratio(float64(good), float64(len(p.base))))
	res.set("load.over_p90_ms", over.p90Ms)
	res.set("load.over_backlog_ratio", over.backlog)
	switch {
	case over.ok:
		res.set("load.max_ok_rate", spec.overRate)
	case base.ok:
		res.set("load.max_ok_rate", spec.baseRate)
	}
}

// warnLateGenerator flags a pass whose dispatcher woke up late (p95 above
// maxLateness) on a step that otherwise passes. Latency is timed from the due
// time, so a late dispatcher can only make the server look worse, never
// better; but it also means the arrivals were smoother than scheduled. The
// benchmark's contract requires exit status 0 of every run, so this is a
// warning on standard error and a per-layer metric (load.lateness_ms_p95),
// not an error: a reader of a surprising number checks it first.
func (p *servePass) warnLateGenerator(spec serveSpec) {
	for _, step := range [][]outcome{p.base, p.over} {
		if v := judgeStep(step, spec.limit); v.ok && v.latenessP95Ms > millis(maxLateness) {
			fmt.Fprintf(os.Stderr, "serve-open: warning: dispatcher ran %.2f ms late (p95, limit %v) on a passing step; the host stalled the generator\n", v.latenessP95Ms, maxLateness)
		}
	}
}

// probeServer times the fixed cost of a request on the live server: a
// result-cache hit on one hot key, and an uncached BFS on a two-vertex graph,
// which is everything a request pays except the traversal itself.
func probeServer(ctx context.Context, res *result, svc *service) error {
	tiny, err := graph.FromEdges[uint32](2, false, true, []graph.Edge[uint32]{{Src: 0, Dst: 1}})
	if err != nil {
		return fmt.Errorf("probe server: %w", err)
	}
	if err := svc.srv.AddGraph(server.Graph{Name: "tiny", Adj: tiny, Storage: "im"}); err != nil {
		return fmt.Errorf("probe server: %w", err)
	}
	c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer c.CloseIdleConnections()
	post := func(body string) error {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, svc.base+"/v1/query", bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		resp, err := c.Do(hr)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	n := max(50, probeIters/100)
	for _, probe := range []struct{ metric, body string }{
		{"server.cached_query_us", `{"graph":"tiny","kernel":"bfs","source":0}`},
		{"server.tiny_query_us", `{"graph":"tiny","kernel":"bfs","source":0,"no_cache":true}`},
	} {
		if err := post(probe.body); err != nil {
			return fmt.Errorf("probe %s: %w", probe.metric, err)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := post(probe.body); err != nil {
				return fmt.Errorf("probe %s: %w", probe.metric, err)
			}
		}
		res.set(probe.metric, perOp(time.Since(start), n, time.Microsecond))
	}
	return nil
}
