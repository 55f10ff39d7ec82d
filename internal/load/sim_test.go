package load

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/server"
)

var (
	prioShed = admit.Config{Order: admit.OrderPriority, Shedding: admit.ShedDeadline}
	fifoOff  = admit.Config{Order: admit.OrderFIFO, Shedding: admit.ShedOff}
)

// overloadConfig offers ~2.6x the modeled capacity: 4 slots at a ~26ms mean
// service time serve ~154 req/s against 400 offered.
func overloadConfig() Config {
	return Config{
		Vertices: 1 << 16,
		Requests: 20000,
		Rate:     400,
		Mix:      map[string]float64{"bfs": 7, "sssp": 3},
		Tenants: []Tenant{
			{Name: "acme", Class: "gold", Weight: 1, Deadline: 300 * time.Millisecond},
			{Name: "bulk", Class: "batch", Weight: 8, Deadline: 2 * time.Second},
		},
		Seed: 7,
	}
}

// uncontended is overloadConfig at ~0.26x capacity.
func uncontended() Config {
	cfg := overloadConfig()
	cfg.Rate = 40
	cfg.Requests = 4000
	return cfg
}

func simReport(t *testing.T, cfg Config, sim SimConfig) *Report {
	t.Helper()
	schedule, err := BuildSchedule(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := Simulate(&cfg, &sim, schedule)
	if err != nil {
		t.Fatal(err)
	}
	return BuildReport(outcomes)
}

func TestSimulateDeterministic(t *testing.T) {
	r1 := simReport(t, overloadConfig(), SimConfig{})
	r2 := simReport(t, overloadConfig(), SimConfig{})
	b1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("same seed and config produced different reports")
	}
}

// TestSimPriorityProtectsGold is the policy claim as a regression test:
// under ~2.6x overload, priority admission plus deadline shedding must give
// the gold class better goodput and a better p99 than FIFO, while the
// overall goodput stays in the same regime (the win must come from
// reordering, not from magically serving more work).
func TestSimPriorityProtectsGold(t *testing.T) {
	prio := simReport(t, overloadConfig(), SimConfig{Admit: prioShed})
	fifo := simReport(t, overloadConfig(), SimConfig{Admit: fifoOff})

	pGold, fGold := prio.Classes["gold"], fifo.Classes["gold"]
	if pGold == nil || fGold == nil {
		t.Fatal("gold class missing from report")
	}
	pGood := float64(pGold.Good) / float64(pGold.Requests)
	fGood := float64(fGold.Good) / float64(fGold.Requests)
	if pGood <= fGood {
		t.Fatalf("gold goodput: priority %.3f <= fifo %.3f", pGood, fGood)
	}
	if pGood < 0.9 {
		t.Fatalf("gold goodput under priority = %.3f, want >= 0.9", pGood)
	}
	if pGold.P99Ms >= fGold.P99Ms {
		t.Fatalf("gold p99: priority %.1fms >= fifo %.1fms", pGold.P99Ms, fGold.P99Ms)
	}
	if prio.Goodput < fifo.Goodput/2 {
		t.Fatalf("total goodput collapsed under priority: %.3f vs fifo %.3f", prio.Goodput, fifo.Goodput)
	}
	if prio.Fairness <= fifo.Fairness {
		t.Fatalf("fairness: priority %.3f <= fifo %.3f", prio.Fairness, fifo.Fairness)
	}
}

// TestSimUncontendedNoRegression: far below capacity, policy must not
// matter — both orders serve everything well and nothing is rejected.
func TestSimUncontendedNoRegression(t *testing.T) {
	prio := simReport(t, uncontended(), SimConfig{Admit: prioShed})
	fifo := simReport(t, uncontended(), SimConfig{Admit: fifoOff})
	for name, r := range map[string]*Report{"priority": prio, "fifo": fifo} {
		if r.Total.Rejected != 0 {
			t.Fatalf("%s rejected %d requests uncontended", name, r.Total.Rejected)
		}
		if r.Goodput < 0.99 {
			t.Fatalf("%s goodput %.3f uncontended, want ~1", name, r.Goodput)
		}
	}
	if prio.Classes["gold"].P99Ms > fifo.Classes["gold"].P99Ms*1.25 {
		t.Fatalf("priority gold p99 %.1fms regressed vs fifo %.1fms uncontended",
			prio.Classes["gold"].P99Ms, fifo.Classes["gold"].P99Ms)
	}
}

func TestSimRateLimitIsolatesTenants(t *testing.T) {
	// Per-tenant cap of 10 req/s: bulk (~36 req/s offered) must be limited
	// heavily, acme (~4 req/s offered) not at all.
	r := simReport(t, uncontended(), SimConfig{RateLimit: server.RateLimitConfig{Rate: 10, Burst: 20}})
	bulk, acme := r.Tenants["bulk"], r.Tenants["acme"]
	if bulk.RateLimited == 0 {
		t.Fatal("bulk tenant over its rate cap was never limited")
	}
	if acme.RateLimited != 0 {
		t.Fatalf("acme tenant under its rate cap was limited %d times", acme.RateLimited)
	}
	if got := float64(bulk.OK) / (r.WallMs / 1000); got > 13 {
		t.Fatalf("bulk served at %.1f req/s against a 10 req/s cap", got)
	}
}

func TestSimQueueTimeoutPath(t *testing.T) {
	cfg := overloadConfig()
	// No shedding and a queue timeout shorter than the drain time: waiters
	// must exit via 503 queue-timeout.
	r := simReport(t, cfg, SimConfig{Admit: admit.Config{Shedding: admit.ShedOff, QueueTimeout: 100 * time.Millisecond}})
	if r.Total.QueueTimeout == 0 {
		t.Fatal("overloaded no-shed run produced no queue timeouts")
	}
}

func TestSimRejectsUnknownKernel(t *testing.T) {
	cfg := overloadConfig()
	cfg.Requests = 10
	schedule, err := BuildSchedule(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := SimConfig{Service: map[string]time.Duration{"cc": time.Millisecond}}
	if _, err := Simulate(&cfg, &sim, schedule); err == nil {
		t.Fatal("schedule kernels missing from Service table were accepted")
	}
}

// TestSimGoldenReports pins the simulator's JSON reports. The files were
// written by `loadgen -sim -json` at the commit before the policy moved into
// internal/admit (when the simulator still carried its own copy of it), so a
// diff here means the shared core decided some request differently — or, for
// a deliberate policy change, that the goldens and the EXPERIMENTS.md tables
// need regenerating together. CI diffs overload_priority.json against a
// fresh `loadgen -sim` run as well.
func TestSimGoldenReports(t *testing.T) {
	limited := SimConfig{RateLimit: server.RateLimitConfig{Rate: 10, Burst: 20}}
	for _, tc := range []struct {
		file string
		cfg  Config
		sim  SimConfig
	}{
		{"overload_priority.json", overloadConfig(), SimConfig{Admit: prioShed}},
		{"uncontended_priority.json", uncontended(), SimConfig{Admit: prioShed}},
		{"uncontended_fifo.json", uncontended(), SimConfig{Admit: fifoOff}},
		{"ratelimited.json", uncontended(), limited},
	} {
		want, err := os.ReadFile("testdata/" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := simReport(t, tc.cfg, tc.sim).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("%s: report differs from the golden", tc.file)
		}
	}
}

// TestSimOutcomeDigests is the differential test's permanent half: a SHA-256
// over every per-request outcome (index, code, reason, latency) of the 2.6x
// overload schedule, for each {priority, fifo} x {deadline, off} x {rate
// limit off, 150:30} policy. testdata/outcome_digests.txt was produced by the
// simulator's former private policy copy, with the monotone-time fix of
// start() applied to it; six of the eight lines are identical without that
// fix, the two fifo/off ones are not (see TestSimVirtualTimeIsMonotone).
func TestSimOutcomeDigests(t *testing.T) {
	want, err := os.ReadFile("testdata/outcome_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, order := range []string{admit.OrderPriority, admit.OrderFIFO} {
		for _, shed := range []string{admit.ShedDeadline, admit.ShedOff} {
			for _, rate := range []float64{0, 150} {
				cfg := overloadConfig()
				schedule, err := BuildSchedule(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim := SimConfig{
					Admit:     admit.Config{Order: order, Shedding: shed},
					RateLimit: server.RateLimitConfig{Rate: rate, Burst: 30},
				}
				outcomes, err := Simulate(&cfg, &sim, schedule)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for i, o := range outcomes {
					fmt.Fprintf(h, "%d %d %s %d\n", i, o.Code, o.Reason, o.Latency)
				}
				fmt.Fprintf(&got, "%s/%s/rl=%v %x\n", order, shed, rate, h.Sum(nil))
			}
		}
	}
	if got.String() != string(want) {
		t.Errorf("per-request outcomes changed:\n got:\n%s want:\n%s", got.String(), want)
	}
}

// TestSimVirtualTimeIsMonotone: under FIFO with shedding off, waiters are
// granted slots after their deadlines have passed. The engine model used to
// charge such a request deadline-minus-now — a negative service time folded
// into the wait estimate — and schedule its departure in the past (1533
// events popped out of order, 819 negative services on this config).
func TestSimVirtualTimeIsMonotone(t *testing.T) {
	cfg := overloadConfig()
	schedule, err := BuildSchedule(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newSimState(&cfg, &SimConfig{Admit: fifoOff}, schedule)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	expired := 0
	for st.events.Len() > 0 {
		ev := st.step()
		if ev.at < now {
			t.Fatalf("event at %v popped after %v", ev.at, now)
		}
		now = ev.at
		if ev.kind == evDepart && ev.svc < 0 {
			t.Fatalf("request %d departed after a negative service time %v", ev.i, ev.svc)
		}
		if ev.kind == evDepart && ev.svc == 0 {
			expired++
			o := st.outcomes[ev.i]
			if o.Code != 504 || o.Latency < o.Req.Deadline {
				t.Fatalf("request %d granted past its deadline: code %d latency %v, want 504 at >= %v", ev.i, o.Code, o.Latency, o.Req.Deadline)
			}
		}
	}
	if expired == 0 {
		t.Fatal("no request was granted a slot past its deadline; the config no longer exercises the path")
	}
}

// TestSimTenantOverrides: per-tenant overrides resolve as in the server — an
// override with Rate <= 0 exempts its tenant from the default limit, another
// tightens its tenant below it.
func TestSimTenantOverrides(t *testing.T) {
	r := simReport(t, uncontended(), SimConfig{RateLimit: server.RateLimitConfig{
		Rate: 10, Burst: 20, // would limit bulk (~36 req/s offered) heavily
		Tenants: map[string]server.TenantLimit{
			"bulk": {},                  // exempt
			"acme": {Rate: 1, Burst: 1}, // ~4 req/s offered against 1 req/s
		},
	}})
	bulk, acme := r.Tenants["bulk"], r.Tenants["acme"]
	if bulk.RateLimited != 0 {
		t.Fatalf("exempt bulk tenant was limited %d times", bulk.RateLimited)
	}
	if acme.RateLimited == 0 {
		t.Fatal("acme tenant over its tightened cap was never limited")
	}
	if got := float64(acme.OK) / (r.WallMs / 1000); got > 1.3 {
		t.Fatalf("acme served at %.2f req/s against a 1 req/s cap", got)
	}
}
