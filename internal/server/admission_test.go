package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
)

// queryReader marshals a query body for requests that need custom headers.
func queryReader(tb testing.TB, req queryRequest) *bytes.Reader {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.NewReader(body)
}

// waitForQueueDepth spins until the admission queue holds want waiters; the
// enqueue happens on another goroutine, so tests must not race it.
func waitForQueueDepth(tb testing.TB, a *admission, want int64) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.QueueDepth() != want {
		if time.Now().After(deadline) {
			tb.Fatalf("queue depth never reached %d (at %d)", want, a.QueueDepth())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// The ordering, displacement and shedding rules are tested on the policy core
// in virtual time (internal/admit). The tests here cover what the driver adds
// around it: timers, grant channels, caller cancellation, and the races
// between them.

func newTestAdmission(t *testing.T, cfg admit.Config) *admission {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return newAdmission(cfg)
}

// mustRun acquires a slot that has to be free.
func mustRun(t *testing.T, a *admission, class admit.Class) {
	t.Helper()
	if d, err := a.acquire(context.Background(), class, time.Time{}); d != admit.Run || err != nil {
		t.Fatalf("acquire on a free slot: %v, %v", d, err)
	}
}

// assertIdle checks that every slot and queue seat came back.
func assertIdle(t *testing.T, a *admission) {
	t.Helper()
	a.mu.Lock()
	running, queued := a.core.Running(), a.core.QueueLen()
	a.mu.Unlock()
	if running != 0 || queued != 0 || a.InFlight() != 0 || a.QueueDepth() != 0 {
		t.Fatalf("admission not idle: core %d running / %d queued, counters %d in flight / %d queued",
			running, queued, a.InFlight(), a.QueueDepth())
	}
}

func TestAdmissionQueueExpiry(t *testing.T) {
	a := newTestAdmission(t, admit.Config{Slots: 1, MaxQueue: 4, QueueTimeout: 5 * time.Millisecond})
	mustRun(t, a, admit.ClassBronze)
	if d, err := a.acquire(context.Background(), admit.ClassBronze, time.Time{}); d != admit.QueueTimeout || err != nil {
		t.Fatalf("starved waiter got %v, %v, want queue-timeout", d, err)
	}
	// A deadline inside the queue timeout expires the waiter first (the cold
	// core has no estimate to shed it with at arrival).
	start := time.Now()
	if d, err := a.acquire(context.Background(), admit.ClassBronze, start.Add(time.Millisecond)); d != admit.DeadlineShed || err != nil {
		t.Fatalf("waiter past its deadline got %v, %v, want deadline-shed", d, err)
	}
	a.release(time.Millisecond)
	assertIdle(t, a)
	if q, s := a.rejects[admit.QueueTimeout].Load(), a.rejects[admit.DeadlineShed].Load(); q != 1 || s != 1 {
		t.Fatalf("counted %d queue timeouts and %d deadline sheds, want 1 and 1", q, s)
	}
	if got := a.classes[admit.ClassBronze].rejected.Load(); got != 2 {
		t.Fatalf("bronze rejected = %d, want 2", got)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newTestAdmission(t, admit.Config{Slots: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	mustRun(t, a, admit.ClassBronze)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, admit.ClassGold, time.Time{})
		done <- err
	}()
	waitForQueueDepth(t, a, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}
	// The seat is gone: the release frees the slot instead of handing it to
	// the dead waiter.
	a.release(time.Millisecond)
	assertIdle(t, a)
	if got := a.classes[admit.ClassGold].rejected.Load(); got != 0 {
		t.Fatalf("a caller cancel was counted as %d rejections", got)
	}
}

// TestAdmissionAbandonVsGrant races the waiter's queue timer against the
// release that would grant it the slot. Whichever wins, the waiter gets one
// outcome and the slot is never leaked or double-granted.
func TestAdmissionAbandonVsGrant(t *testing.T) {
	const timeout = 2 * time.Millisecond
	a := newTestAdmission(t, admit.Config{Slots: 1, MaxQueue: 4, QueueTimeout: timeout})
	var granted, timedOut int
	for i := 0; i < 300; i++ {
		mustRun(t, a, admit.ClassBronze)
		outcome := make(chan admit.Decision, 1)
		go func() {
			d, _ := a.acquire(context.Background(), admit.ClassBronze, time.Time{})
			outcome <- d
		}()
		// Sweep the release across the timer. No waiting for the waiter to
		// park: if the release wins even that race the waiter finds the slot
		// free, which is a grant all the same.
		time.Sleep(time.Duration(i%8) * timeout / 6)
		a.release(time.Millisecond)
		switch d := <-outcome; d {
		case admit.Run:
			granted++
			a.release(time.Millisecond)
		case admit.QueueTimeout:
			timedOut++
		default:
			t.Fatalf("iteration %d: waiter got %v", i, d)
		}
		assertIdle(t, a)
	}
	t.Logf("granted %d, timed out %d", granted, timedOut)
	if got := a.rejects[admit.QueueTimeout].Load(); got != uint64(timedOut) {
		t.Fatalf("counted %d queue timeouts, observed %d", got, timedOut)
	}
}

// TestAdmissionDisplacedWhileTimerFires races a parked batch waiter's queue
// timer against the gold arrival that displaces it from a full queue: the
// batch waiter is rejected exactly once, for one of the two reasons, and the
// gold arrival keeps the seat either way.
func TestAdmissionDisplacedWhileTimerFires(t *testing.T) {
	const timeout = 2 * time.Millisecond
	for i := 0; i < 300; i++ {
		a := newTestAdmission(t, admit.Config{Slots: 1, MaxQueue: 1, QueueTimeout: timeout})
		mustRun(t, a, admit.ClassBronze)
		batch := make(chan admit.Decision, 1)
		go func() {
			d, _ := a.acquire(context.Background(), admit.ClassBatch, time.Time{})
			batch <- d
		}()
		// Sweep the gold arrival across the batch waiter's timer. Should gold
		// even beat the batch request to the seat, the batch arrival finds the
		// queue full of a better waiter: the same rejection.
		time.Sleep(time.Duration(i%8) * timeout / 6)
		gold := make(chan admit.Decision, 1)
		go func() {
			d, _ := a.acquire(context.Background(), admit.ClassGold, time.Now().Add(time.Minute))
			gold <- d
		}()
		d := <-batch
		if d != admit.QueueFull && d != admit.QueueTimeout {
			t.Fatalf("iteration %d: batch waiter got %v, want queue-full or queue-timeout", i, d)
		}
		// Gold holds the seat until its own timer; release before that.
		a.release(time.Millisecond)
		if d := <-gold; d == admit.Run {
			a.release(time.Millisecond)
		} else if d != admit.QueueTimeout {
			t.Fatalf("iteration %d: gold arrival got %v", i, d)
		}
		assertIdle(t, a)
		if got := a.classes[admit.ClassBatch].rejected.Load(); got != 1 {
			t.Fatalf("iteration %d: batch rejected %d times, want once", i, got)
		}
	}
}

func TestRejectStatus(t *testing.T) {
	for d, want := range map[admit.Decision]struct {
		status int
		reason string
	}{
		admit.QueueFull:    {http.StatusTooManyRequests, "queue-full"},
		admit.RateLimited:  {http.StatusTooManyRequests, "rate-limit"},
		admit.QueueTimeout: {http.StatusServiceUnavailable, "queue-timeout"},
		admit.DeadlineShed: {http.StatusServiceUnavailable, "deadline-shed"},
	} {
		if got := RejectStatus(d); got != want.status || d.String() != want.reason {
			t.Errorf("%v: status %d reason %q, want %d %q", d, got, d.String(), want.status, want.reason)
		}
	}
}

// TestOverloadRejectReasons drives the overload paths end to end over HTTP
// and checks the status code and X-Reject-Reason header for each.
func TestOverloadRejectReasons(t *testing.T) {
	slow := slowStores(t, 200*time.Microsecond)
	s := New(Config{
		Admit:        admit.Config{Slots: 1, MaxQueue: 1, QueueTimeout: 50 * time.Millisecond},
		CacheEntries: -1,
		Engine:       core.Config{Workers: 2},
	})
	if err := s.AddGraph(Graph{Name: "slow", Adj: slow}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the EWMA so deadline shedding has an estimate to work with.
	if resp, body := postQuery(t, ts, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d %s", resp.StatusCode, body)
	}

	// Hold the only slot and the only queue seat with slow queries.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postQuery(t, ts, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0, TimeoutMs: 10_000})
		}()
	}
	for s.admit.InFlight() != 1 || s.admit.QueueDepth() != 1 {
		time.Sleep(100 * time.Microsecond)
	}

	// Full queue, batch arrival: 429 queue-full (cannot displace the
	// queued anon/bronze waiter).
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", queryReader(t, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0, TimeoutMs: 10_000}))
	req.Header.Set(ClassHeader, "batch")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(RejectReasonHeader) != "queue-full" {
		t.Fatalf("full queue: status %d reason %q, want 429 queue-full", resp.StatusCode, resp.Header.Get(RejectReasonHeader))
	}

	// Budget below the estimated wait: immediate 503 deadline-shed.
	start := time.Now()
	resp2, _ := postQuery(t, ts, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0, TimeoutMs: 1})
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get(RejectReasonHeader) != "deadline-shed" {
		t.Fatalf("hopeless budget: status %d reason %q, want 503 deadline-shed", resp2.StatusCode, resp2.Header.Get(RejectReasonHeader))
	}
	if waited := time.Since(start); waited > 40*time.Millisecond {
		t.Fatalf("deadline shed took %v, want immediate (queue timeout is 50ms)", waited)
	}
	wg.Wait()

	m := fetchMetrics(t, ts)
	adm := m["admission"].(map[string]any)
	if adm["queue_full"].(float64) < 1 {
		t.Fatalf("admission.queue_full = %v, want >= 1", adm["queue_full"])
	}
	if adm["deadline_shed"].(float64) < 1 {
		t.Fatalf("admission.deadline_shed = %v, want >= 1", adm["deadline_shed"])
	}
	classes := adm["classes"].(map[string]any)
	if classes["batch"].(map[string]any)["rejected"].(float64) < 1 {
		t.Fatalf("admission.classes.batch.rejected = %v, want >= 1", classes["batch"])
	}
	wait := adm["queue_wait"].(map[string]any)
	if wait["count"].(float64) < 1 {
		t.Fatalf("admission.queue_wait.count = %v, want >= 1", wait["count"])
	}
}

// TestQueueTimeoutReturns503 starves a queued request past QueueTimeout.
func TestQueueTimeoutReturns503(t *testing.T) {
	slow := slowStores(t, time.Millisecond)
	s := New(Config{
		Admit:        admit.Config{Slots: 1, MaxQueue: 4, QueueTimeout: 5 * time.Millisecond, Shedding: admit.ShedOff},
		CacheEntries: -1,
		Engine:       core.Config{Workers: 2},
	})
	if err := s.AddGraph(Graph{Name: "slow", Adj: slow}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hold := make(chan struct{})
	go func() {
		postQuery(t, ts, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0, TimeoutMs: 10_000})
		close(hold)
	}()
	for s.admit.InFlight() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	resp, _ := postQuery(t, ts, queryRequest{Graph: "slow", Kernel: "bfs", Source: 0, TimeoutMs: 10_000})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(RejectReasonHeader) != "queue-timeout" {
		t.Fatalf("starved waiter: status %d reason %q, want 503 queue-timeout", resp.StatusCode, resp.Header.Get(RejectReasonHeader))
	}
	<-hold
}

func TestRateLimitPerTenant(t *testing.T) {
	st := buildStores(t, 8)
	s := New(Config{
		CacheEntries: -1,
		RateLimit:    RateLimitConfig{Rate: 0.001, Burst: 1, Tenants: map[string]TenantLimit{"vip": {Rate: 1000, Burst: 1000}}},
		Engine:       core.Config{Workers: 4},
	})
	if err := s.AddGraph(Graph{Name: "im", Adj: st.im}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	send := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", queryReader(t, queryRequest{Graph: "im", Kernel: "bfs", Source: 0}))
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp
	}

	// Default bucket: burst 1 at a glacial refill — first request passes,
	// the second is limited.
	if resp := send("slowpoke"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d, want 200", resp.StatusCode)
	}
	resp := send("slowpoke")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(RejectReasonHeader) != "rate-limit" {
		t.Fatalf("second request: status %d reason %q, want 429 rate-limit", resp.StatusCode, resp.Header.Get(RejectReasonHeader))
	}
	// Tenant isolation: another tenant's bucket is untouched, and the vip
	// override grants far more than the default.
	if resp := send("other"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant's first request: %d, want 200 (buckets must be per-tenant)", resp.StatusCode)
	}
	for i := 0; i < 5; i++ {
		if resp := send("vip"); resp.StatusCode != http.StatusOK {
			t.Fatalf("vip request %d: %d, want 200 (override)", i, resp.StatusCode)
		}
	}
	m := fetchMetrics(t, ts)
	if n := m["queries_rate_limited"].(float64); n < 1 {
		t.Fatalf("queries_rate_limited = %v, want >= 1", n)
	}
	rl := m["rate_limit"].(map[string]any)
	if rl["enabled"] != true {
		t.Fatalf("rate_limit.enabled = %v, want true", rl["enabled"])
	}
}
