package load

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"repro/internal/admit"
	"repro/internal/server"
)

// Discrete-event simulator: replays a schedule against the query service's
// serving policy in virtual time. Every policy decision — rate-limit
// conformance, slot or queue, ordering, displacement, shedding, expiry — is
// made by internal/admit, the state machine internal/server drives; the
// simulator replaces goroutines and wall time with an event heap, so a run
// is deterministic to the byte. Same seed, same config → same report. That
// is what lets CI assert "priority beats FIFO for gold p99 under 2× overload"
// as a regression test instead of a flaky benchmark, and what the
// EXPERIMENTS.md policy tables are generated from.
//
// The simulator owns the event heap and its order at equal timestamps, the
// engine model (a granted request holds its slot for its service demand, or
// until its deadline cancels it — the 504 path), and outcome recording.
// Service demands are drawn per request, in schedule order, from their own
// seeded stream before the event loop runs — so FIFO and priority runs over
// one schedule face identical work, making the comparison paired.

// SimConfig models the server being simulated. Zero values select the
// documented defaults; Validate normalizes in place.
type SimConfig struct {
	// Admit and RateLimit are the serving policy under test, the structs
	// server.Config carries.
	Admit     admit.Config
	RateLimit server.RateLimitConfig
	// Service is the mean traversal time per kernel. Defaults:
	// bfs 20ms, sssp 40ms, cc 30ms.
	Service map[string]time.Duration
	// Jitter spreads each service draw uniformly over
	// mean * [1-Jitter, 1+Jitter]. Default 0.2; 0 < exact means.
	Jitter float64
}

// Validate normalizes defaults in place and reports contradictions.
func (c *SimConfig) Validate() error {
	if err := c.Admit.Validate(); err != nil {
		return err
	}
	c.RateLimit.Normalize()
	if c.Service == nil {
		c.Service = map[string]time.Duration{
			"bfs": 20 * time.Millisecond, "sssp": 40 * time.Millisecond, "cc": 30 * time.Millisecond,
		}
	}
	for k, d := range c.Service {
		if d <= 0 {
			return fmt.Errorf("load: sim Service[%q] %v must be positive", k, d)
		}
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("load: sim Jitter %v out of [0, 1)", c.Jitter)
	}
	return nil
}

// Event kinds, in deliberate order: at equal timestamps departures free
// slots before arrivals claim them and before expiries judge waiters.
const (
	evDepart = iota
	evArrive
	evExpire
)

type simEvent struct {
	at   time.Duration
	kind int
	seq  uint64
	i    int                // schedule index (arrive, depart)
	svc  time.Duration      // service consumed (depart)
	t    *admit.Ticket[int] // queued ticket, Data = schedule index (expire)
}

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// simBucket is one tenant's GCRA state; nil means the tenant is exempt.
type simBucket struct {
	admit.Bucket
	tat time.Duration
}

// simState is the event loop's mutable world.
type simState struct {
	cfg      *SimConfig
	schedule []Request
	svc      []time.Duration // pre-drawn service demand per request
	outcomes []Outcome

	events  eventHeap
	evSeq   uint64
	core    *admit.Core[int]
	buckets map[string]*simBucket
}

// Simulate replays schedule through the server model. cfg supplies the seed
// for the service-demand stream (kept separate from the schedule stream so
// both are stable under policy changes).
func Simulate(cfg *Config, sim *SimConfig, schedule []Request) ([]Outcome, error) {
	st, err := newSimState(cfg, sim, schedule)
	if err != nil {
		return nil, err
	}
	for st.events.Len() > 0 {
		st.step()
	}
	return st.outcomes, nil
}

func newSimState(cfg *Config, sim *SimConfig, schedule []Request) (*simState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sim.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed^0xA5A5A5A5A5A5A5A5, cfg.Seed+0x6C62272E07BB0142))
	st := &simState{
		cfg:      sim,
		schedule: schedule,
		svc:      make([]time.Duration, len(schedule)),
		outcomes: make([]Outcome, len(schedule)),
		core:     admit.New[int](sim.Admit),
		buckets:  make(map[string]*simBucket),
	}
	for i, req := range schedule {
		mean, ok := sim.Service[req.Kernel]
		if !ok {
			return nil, fmt.Errorf("load: sim has no Service time for kernel %q", req.Kernel)
		}
		f := 1 - sim.Jitter + 2*sim.Jitter*rng.Float64()
		st.svc[i] = time.Duration(float64(mean) * f)
		st.push(&simEvent{at: req.At, kind: evArrive, i: i})
	}
	return st, nil
}

// step pops and applies the next event, returning it.
func (st *simState) step() *simEvent {
	ev := heap.Pop(&st.events).(*simEvent)
	switch ev.kind {
	case evArrive:
		st.arrive(ev.at, ev.i)
	case evDepart:
		if next := st.core.Release(ev.at, ev.svc); next != nil {
			st.start(ev.at, next.Data)
		}
	case evExpire:
		// The ticket was enqueued at its request's arrival time, so the wait
		// it is rejected after is QueueTimeout or the whole Deadline.
		if st.core.Remove(ev.t) {
			st.reject(ev.t.Data, ev.t.Expire, ev.at-st.schedule[ev.t.Data].At)
		}
	}
	return ev
}

func (st *simState) push(ev *simEvent) {
	ev.seq = st.evSeq
	st.evSeq++
	heap.Push(&st.events, ev)
}

func (st *simState) reject(i int, d admit.Decision, latency time.Duration) {
	st.outcomes[i] = Outcome{Req: st.schedule[i], Code: server.RejectStatus(d), Reason: d.String(), Latency: latency}
}

// conforms runs tenant's request at now through its bucket, materialized on
// the tenant's first request as in the server.
func (st *simState) conforms(now time.Duration, tenant string) bool {
	b, ok := st.buckets[tenant]
	if !ok {
		if gcra, limited := st.cfg.RateLimit.Bucket(tenant); limited {
			b = &simBucket{Bucket: gcra}
		}
		st.buckets[tenant] = b
	}
	if b == nil {
		return true
	}
	next, ok := b.Conform(b.tat, now)
	if ok {
		b.tat = next
	}
	return ok
}

func (st *simState) arrive(now time.Duration, i int) {
	req := st.schedule[i]
	if !st.conforms(now, req.Tenant) {
		st.reject(i, admit.RateLimited, 0)
		return
	}
	d, t, displaced := st.core.Arrive(now, admit.ParseClass(req.Class), req.At+req.Deadline)
	if displaced != nil {
		st.reject(displaced.Data, admit.QueueFull, now-st.schedule[displaced.Data].At)
	}
	switch d {
	case admit.Run:
		st.start(now, i)
	case admit.Queued:
		t.Data = i
		st.push(&simEvent{at: t.ExpireAt, kind: evExpire, t: t})
	default:
		st.reject(i, d, 0)
	}
}

// start puts request i on a slot at time now, judging its outcome up front:
// completion within budget is a 200 at finish time; past budget the engine
// is canceled at the deadline and the reply is a 504 — the server's
// per-query context semantics. A slot granted at or after the deadline (only
// possible with shedding off) is the server's already-expired context: the
// engine consumes nothing and the 504 goes out now.
func (st *simState) start(now time.Duration, i int) {
	req := st.schedule[i]
	budget := max(0, req.At+req.Deadline-now)
	if st.svc[i] > budget {
		st.outcomes[i] = Outcome{Req: req, Code: http.StatusGatewayTimeout, Latency: max(req.Deadline, now-req.At)}
		st.push(&simEvent{at: now + budget, kind: evDepart, i: i, svc: budget})
		return
	}
	st.outcomes[i] = Outcome{Req: req, Code: http.StatusOK, Latency: now + st.svc[i] - req.At}
	st.push(&simEvent{at: now + st.svc[i], kind: evDepart, i: i, svc: st.svc[i]})
}
