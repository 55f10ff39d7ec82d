package load

import (
	"context"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// slowAdj delays every adjacency read so traversals take long enough for
// admission queues to form at modest request rates.
type slowAdj struct {
	*graph.CSR[uint32]
	delay time.Duration
}

func (s *slowAdj) Neighbors(v uint32, scratch *graph.Scratch[uint32]) ([]uint32, []graph.Weight, error) {
	time.Sleep(s.delay)
	return s.CSR.Neighbors(v, scratch)
}

// newLiveServer serves a 32-vertex graph where every adjacency read sleeps
// 1ms on a single worker: each traversal costs a stable ~35ms (the sleep
// dwarfs scheduler jitter), so one slot caps capacity near 30 queries/s on
// any machine.
func newLiveServer(t *testing.T, order, shedding string) *server.Server {
	t.Helper()
	csr, err := gen.RMAT[uint32](5, 8, gen.RMATA, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{
		Admit:        admit.Config{Slots: 1, MaxQueue: 64, Order: order, Shedding: shedding},
		CacheEntries: -1,
		Engine:       core.Config{Workers: 1},
	})
	if err := s.AddGraph(server.Graph{Name: "g", Adj: &slowAdj{CSR: csr, delay: time.Millisecond}}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLivePriorityInversion replays one seeded schedule — a batch-class
// flood with a thin stream of tight-deadline gold traffic at ~2x the
// server's capacity — against real in-process servers under both admission
// policies. The low-class flood must not starve the high class: gold
// goodput has to be materially better under priority than under FIFO.
//
// Absolute latencies here are real, so the assertions compare policies on
// the identical schedule rather than pinning wall-clock numbers.
func TestLivePriorityInversion(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~1s of wall-clock load per policy")
	}
	cfg := Config{
		Vertices: 32,
		Requests: 90,
		Rate:     60, // ~2x the server's ~30 q/s capacity
		Tenants: []Tenant{
			{Name: "acme", Class: "gold", Weight: 1, Deadline: 150 * time.Millisecond},
			{Name: "bulk", Class: "batch", Weight: 19, Deadline: 2 * time.Second},
		},
		Seed:    11,
		NoCache: true,
	}
	schedule, err := BuildSchedule(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	goldGood := func(admission, shedding string) (good, total int) {
		s := newLiveServer(t, admission, shedding)
		r := &Runner{Target: &HandlerTarget{Handler: s.Handler(), Graph: "g", NoCache: true}}
		outcomes := r.Run(context.Background(), schedule)
		for i := range outcomes {
			if outcomes[i].Req.Class != "gold" {
				continue
			}
			total++
			if outcomes[i].Good() {
				good++
			}
		}
		return good, total
	}

	prioGood, prioTotal := goldGood(admit.OrderPriority, admit.ShedDeadline)
	fifoGood, fifoTotal := goldGood(admit.OrderFIFO, admit.ShedOff)
	if prioTotal == 0 || prioTotal != fifoTotal {
		t.Fatalf("gold request counts diverged: %d vs %d (schedule must be shared)", prioTotal, fifoTotal)
	}
	t.Logf("gold goodput: priority %d/%d, fifo %d/%d", prioGood, prioTotal, fifoGood, fifoTotal)
	if prioGood <= fifoGood {
		t.Fatalf("priority gold goodput %d/%d not better than fifo %d/%d",
			prioGood, prioTotal, fifoGood, fifoTotal)
	}
	if float64(prioGood)/float64(prioTotal) < 0.7 {
		t.Fatalf("priority served only %d/%d gold requests well", prioGood, prioTotal)
	}
}
