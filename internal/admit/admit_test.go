package admit

import (
	"math/rand/v2"
	"testing"
	"time"
)

const ms = time.Millisecond

func newCore(t *testing.T, cfg Config) *Core[string] {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return New[string](cfg)
}

// arrival is one scripted request: name tags its ticket, deadline 0 means
// NoDeadline.
type arrival struct {
	name     string
	class    Class
	deadline time.Duration
}

// park fills c's single slot at t=0 and queues the given arrivals at t=1ms,
// failing the test if any is not queued.
func park(t *testing.T, c *Core[string], arrivals []arrival) {
	t.Helper()
	if d, _, _ := c.Arrive(0, ClassBronze, NoDeadline); d != Run {
		t.Fatalf("first arrival on an idle core: %v, want run", d)
	}
	for _, a := range arrivals {
		dl := a.deadline
		if dl == 0 {
			dl = NoDeadline
		}
		d, tk, displaced := c.Arrive(ms, a.class, dl)
		if d != Queued || displaced != nil {
			t.Fatalf("%s: %v (displaced %v), want queued", a.name, d, displaced)
		}
		tk.Data = a.name
	}
}

// drain releases until the queue is empty and returns the grant order.
func drain(c *Core[string]) []string {
	var order []string
	for now := 2 * ms; ; now += ms {
		next := c.Release(now, ms)
		if next == nil {
			return order
		}
		order = append(order, next.Data)
	}
}

func TestGrantOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		order    string
		arrivals []arrival
		want     []string
	}{
		{
			// Worst class first, so arrival order and priority order disagree.
			name:  "priority orders by class",
			order: OrderPriority,
			arrivals: []arrival{
				{"batch", ClassBatch, 0}, {"bronze", ClassBronze, 0}, {"silver", ClassSilver, 0}, {"gold", ClassGold, 0},
			},
			want: []string{"gold", "silver", "bronze", "batch"},
		},
		{
			name:  "earliest deadline first within a class, no deadline last",
			order: OrderPriority,
			arrivals: []arrival{
				{"none", ClassBronze, 0}, {"3s", ClassBronze, 3 * time.Second}, {"1s", ClassBronze, time.Second}, {"2s", ClassBronze, 2 * time.Second},
			},
			want: []string{"1s", "2s", "3s", "none"},
		},
		{
			name:  "class outranks deadline",
			order: OrderPriority,
			arrivals: []arrival{
				{"batch-urgent", ClassBatch, 10 * ms}, {"gold-relaxed", ClassGold, time.Hour},
			},
			want: []string{"gold-relaxed", "batch-urgent"},
		},
		{
			name:  "equal class and deadline fall back to arrival",
			order: OrderPriority,
			arrivals: []arrival{
				{"first", ClassSilver, time.Second}, {"second", ClassSilver, time.Second},
			},
			want: []string{"first", "second"},
		},
		{
			name:  "fifo ignores class and deadline",
			order: OrderFIFO,
			arrivals: []arrival{
				{"batch", ClassBatch, 0}, {"gold", ClassGold, 10 * ms}, {"silver", ClassSilver, 0},
			},
			want: []string{"batch", "gold", "silver"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCore(t, Config{Slots: 1, MaxQueue: 8, Order: tc.order, Shedding: ShedOff})
			park(t, c, tc.arrivals)
			got := drain(c)
			if len(got) != len(tc.want) {
				t.Fatalf("granted %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("granted %v, want %v", got, tc.want)
				}
			}
			if c.Running() != 0 || c.QueueLen() != 0 {
				t.Fatalf("drained core still has %d running, %d queued", c.Running(), c.QueueLen())
			}
		})
	}
}

func TestFullQueue(t *testing.T) {
	for _, tc := range []struct {
		name      string
		order     string
		parked    []arrival
		newcomer  arrival
		want      Decision
		displaced string // name of the evicted ticket, "" for none
	}{
		{"gold displaces the parked batch", OrderPriority,
			[]arrival{{"batch", ClassBatch, 0}}, arrival{"gold", ClassGold, time.Minute}, Queued, "batch"},
		{"batch cannot displace bronze", OrderPriority,
			[]arrival{{"bronze", ClassBronze, 0}}, arrival{"batch", ClassBatch, 0}, QueueFull, ""},
		{"an equal newcomer loses on arrival order", OrderPriority,
			[]arrival{{"bronze", ClassBronze, 0}}, arrival{"bronze2", ClassBronze, 0}, QueueFull, ""},
		{"the worst of several is the one displaced", OrderPriority,
			[]arrival{{"silver", ClassSilver, 0}, {"batch-late", ClassBatch, 0}, {"batch-soon", ClassBatch, time.Second}},
			arrival{"gold", ClassGold, 0}, Queued, "batch-late"},
		{"fifo never displaces", OrderFIFO,
			[]arrival{{"batch", ClassBatch, 0}}, arrival{"gold", ClassGold, time.Minute}, QueueFull, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCore(t, Config{Slots: 1, MaxQueue: len(tc.parked), Order: tc.order, Shedding: ShedOff})
			park(t, c, tc.parked)
			dl := tc.newcomer.deadline
			if dl == 0 {
				dl = NoDeadline
			}
			d, tk, displaced := c.Arrive(2*ms, tc.newcomer.class, dl)
			if d != tc.want {
				t.Fatalf("newcomer: %v, want %v", d, tc.want)
			}
			if (tk != nil) != (d == Queued) {
				t.Fatalf("decision %v came with ticket %v", d, tk)
			}
			got := ""
			if displaced != nil {
				got = displaced.Data
				if c.Remove(displaced) {
					t.Fatal("a displaced ticket was still removable")
				}
			}
			if got != tc.displaced {
				t.Fatalf("displaced %q, want %q", got, tc.displaced)
			}
			if c.QueueLen() != len(tc.parked) {
				t.Fatalf("queue holds %d, want it still full at %d", c.QueueLen(), len(tc.parked))
			}
		})
	}
}

func TestDeadlineShedAtArrival(t *testing.T) {
	c := newCore(t, Config{Slots: 1, MaxQueue: 8})
	// Cold core: no service observations, so nothing is shed even with a
	// hopeless deadline — admit-and-try is the cold policy.
	park(t, c, []arrival{{"hopeless-but-cold", ClassBronze, 2 * ms}})
	if next := c.Release(50*ms, 50*ms); next == nil || next.Data != "hopeless-but-cold" { // seeds the average at 50ms
		t.Fatalf("release granted %v", next)
	}

	// One running, none queued: the estimate is one 50ms round.
	now := 60 * ms
	if d, _, _ := c.Arrive(now, ClassBronze, now+ms); d != DeadlineShed {
		t.Fatalf("1ms budget against a 50ms estimate: %v, want deadline-shed", d)
	}
	if d, _, _ := c.Arrive(now, ClassBronze, now+50*ms); d != Queued {
		t.Fatalf("budget equal to the estimate: %v, want queued", d)
	}
	if d, _, _ := c.Arrive(now, ClassBronze, NoDeadline); d != Queued {
		t.Fatalf("no deadline: %v, want queued", d)
	}

	// The estimate counts the waiters ahead in queue order: behind two
	// bronze waiters a batch arrival faces 3 rounds (150ms), a gold arrival
	// with the same budget still only 1.
	if d, _, _ := c.Arrive(now, ClassBatch, now+100*ms); d != DeadlineShed {
		t.Fatalf("batch behind the backlog: %v, want deadline-shed", d)
	}
	if d, _, _ := c.Arrive(now, ClassGold, now+100*ms); d != Queued {
		t.Fatalf("gold ahead of the backlog: %v, want queued", d)
	}

	// With shedding off the same hopeless arrival queues.
	off := newCore(t, Config{Slots: 1, MaxQueue: 8, Shedding: ShedOff})
	park(t, off, nil)
	off.Release(50*ms, 50*ms)
	off.Arrive(60*ms, ClassBronze, NoDeadline)
	if d, _, _ := off.Arrive(60*ms, ClassBronze, 61*ms); d != Queued {
		t.Fatalf("shedding off: %v, want queued", d)
	}
}

func TestWaitEstimateAverage(t *testing.T) {
	c := newCore(t, Config{Slots: 2, MaxQueue: 8})
	c.Arrive(0, ClassBronze, NoDeadline)
	c.Arrive(0, ClassBronze, NoDeadline)
	c.Release(80*ms, 80*ms) // seeds the average: 80ms
	c.Release(80*ms, 16*ms) // 80 + (16-80)/8 = 72ms
	c.Arrive(80*ms, ClassBronze, NoDeadline)
	c.Arrive(80*ms, ClassBronze, NoDeadline)
	// Two slots: 0 or 1 ahead is one round, 2 ahead is two.
	for ahead, want := range []time.Duration{72 * ms, 72 * ms, 144 * ms} {
		cand := &Ticket[string]{Class: ClassBatch, Deadline: NoDeadline, seq: c.seq}
		if got := c.estimateWait(cand); got != want {
			t.Fatalf("%d ahead: estimate %v, want %v", ahead, got, want)
		}
		c.Arrive(80*ms, ClassBronze, NoDeadline)
	}
}

func TestExpiry(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shedding string
		deadline time.Duration
		wantAt   time.Duration
		want     Decision
	}{
		{"deadline inside the queue timeout sheds at the deadline", ShedDeadline, 40 * ms, 40 * ms, DeadlineShed},
		{"deadline beyond the queue timeout times out", ShedDeadline, time.Second, 101 * ms, QueueTimeout},
		{"deadline at the queue timeout times out", ShedDeadline, 101 * ms, 101 * ms, QueueTimeout},
		{"no deadline times out", ShedDeadline, NoDeadline, 101 * ms, QueueTimeout},
		{"shedding off ignores the deadline", ShedOff, 40 * ms, 101 * ms, QueueTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCore(t, Config{Slots: 1, MaxQueue: 4, QueueTimeout: 100 * ms, Shedding: tc.shedding})
			c.Arrive(0, ClassBronze, NoDeadline)
			d, tk, _ := c.Arrive(ms, ClassBronze, tc.deadline)
			if d != Queued {
				t.Fatalf("arrival: %v, want queued", d)
			}
			if tk.ExpireAt != tc.wantAt || tk.Expire != tc.want {
				t.Fatalf("expires %v at %v, want %v at %v", tk.Expire, tk.ExpireAt, tc.want, tc.wantAt)
			}
			if !c.Remove(tk) {
				t.Fatal("a queued ticket was not removable")
			}
			if c.Remove(tk) {
				t.Fatal("a ticket was removed twice")
			}
			if next := c.Release(tk.ExpireAt, ms); next != nil {
				t.Fatalf("release granted the removed ticket %v", next)
			}
			if c.Running() != 0 {
				t.Fatalf("%d running after the only request released", c.Running())
			}
		})
	}
}

func TestRemoveLosesToGrant(t *testing.T) {
	c := newCore(t, Config{Slots: 1, MaxQueue: 4})
	park(t, c, []arrival{{"w", ClassBronze, 0}})
	tk := c.Release(2*ms, ms)
	if tk == nil || c.Remove(tk) {
		t.Fatalf("a granted ticket (%v) was still removable", tk)
	}
	if c.Running() != 1 {
		t.Fatalf("%d running across a hand-off, want 1", c.Running())
	}
}

func TestConfigValidate(t *testing.T) {
	var def Config
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := (Config{Slots: 4, MaxQueue: 64, QueueTimeout: 2 * time.Second, Order: OrderPriority, Shedding: ShedDeadline}); def != want {
		t.Fatalf("defaults %+v, want %+v", def, want)
	}
	for _, bad := range []Config{
		{Slots: -1}, {MaxQueue: -1}, {QueueTimeout: -time.Second}, {Order: "lifo"}, {Shedding: "sometimes"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{
		"gold": ClassGold, " Silver ": ClassSilver, "BATCH": ClassBatch, "bronze": ClassBronze, "": ClassBronze, "platinum": ClassBronze,
	} {
		if got := ParseClass(in); got != want {
			t.Errorf("ParseClass(%q) = %v, want %v", in, got, want)
		}
	}
	if got := ClassBatch.String(); got != "batch" {
		t.Errorf("ClassBatch.String() = %q", got)
	}
}

// TestRandomSchedules drives seeded random arrival / release / expiry /
// cancel sequences and checks the policy's contract against an independent
// model: every request reaches exactly one terminal decision; a grant goes
// to the queued request no other queued request is before; displacement
// evicts the worst waiter, only for a better newcomer, never under FIFO; the
// slot and queue bounds hold.
func TestRandomSchedules(t *testing.T) {
	type request struct {
		class    Class
		deadline time.Duration
		arrived  int // arrival number, the model's tiebreak
		ticket   *Ticket[int]
		state    string // "", "running", "queued", or a terminal decision
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		cfg := Config{Slots: 1 + rng.IntN(3), MaxQueue: 1 + rng.IntN(6), QueueTimeout: 50 * ms}
		if seed%2 == 0 {
			cfg.Order = OrderFIFO
		}
		if seed%3 == 0 {
			cfg.Shedding = ShedOff
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		fifo := cfg.Order == OrderFIFO
		c := New[int](cfg)
		var reqs []*request
		// before is the model's ordering, written from the policy's
		// description rather than shared with the implementation.
		before := func(a, b *request) bool {
			if !fifo && a.class != b.class {
				return a.class < b.class
			}
			if !fifo && a.deadline != b.deadline {
				return a.deadline < b.deadline
			}
			return a.arrived < b.arrived
		}
		queued := func() (qs []*request) {
			for _, r := range reqs {
				if r.state == "queued" {
					qs = append(qs, r)
				}
			}
			return qs
		}
		running := func() (n int) {
			for _, r := range reqs {
				if r.state == "running" {
					n++
				}
			}
			return n
		}
		finish := func(r *request, state string) {
			if r.state != "queued" {
				t.Fatalf("seed %d: request %d decided %s after already being %s", seed, r.arrived, state, r.state)
			}
			r.state = state
		}

		var now time.Duration
		for step := 0; step < 400; step++ {
			now += time.Duration(rng.IntN(10)) * ms
			switch op := rng.IntN(10); {
			case op < 5: // arrive
				r := &request{class: Class(rng.IntN(int(NumClasses))), deadline: NoDeadline, arrived: len(reqs)}
				if rng.IntN(4) > 0 {
					r.deadline = now + time.Duration(1+rng.IntN(80))*ms
				}
				hadFree, wasFull, qs := running() < cfg.Slots, len(queued()) == cfg.MaxQueue, queued()
				d, tk, displaced := c.Arrive(now, r.class, r.deadline)
				reqs = append(reqs, r)
				if (d == Run) != hadFree {
					t.Fatalf("seed %d: arrival got %v with a free slot: %v", seed, d, hadFree)
				}
				switch d {
				case Run:
					r.state = "running"
				case Queued:
					r.state, r.ticket = "queued", tk
					tk.Data = r.arrived
				case QueueFull:
					if !wasFull {
						t.Fatalf("seed %d: queue-full with %d of %d queued", seed, len(qs), cfg.MaxQueue)
					}
					for _, q := range qs {
						if before(r, q) {
							t.Fatalf("seed %d: request %d rejected queue-full though it outranks queued %d", seed, r.arrived, q.arrived)
						}
					}
					r.state = d.String()
				case DeadlineShed:
					if cfg.Shedding == ShedOff || r.deadline == NoDeadline {
						t.Fatalf("seed %d: shed with shedding %s, deadline %v", seed, cfg.Shedding, r.deadline)
					}
					r.state = d.String()
				default:
					t.Fatalf("seed %d: Arrive returned %v", seed, d)
				}
				if displaced != nil {
					victim := reqs[displaced.Data]
					if fifo || !wasFull || d != Queued {
						t.Fatalf("seed %d: displacement under fifo=%v, full=%v, decision %v", seed, fifo, wasFull, d)
					}
					for _, q := range qs {
						if before(victim, q) {
							t.Fatalf("seed %d: displaced %d though %d is worse", seed, victim.arrived, q.arrived)
						}
					}
					if !before(r, victim) {
						t.Fatalf("seed %d: request %d displaced %d without outranking it", seed, r.arrived, victim.arrived)
					}
					finish(victim, QueueFull.String())
				}
			case op < 8: // release
				var done *request
				for _, r := range reqs {
					if r.state == "running" {
						done = r
						break
					}
				}
				if done == nil {
					continue
				}
				done.state = "done"
				qs := queued()
				next := c.Release(now, time.Duration(1+rng.IntN(30))*ms)
				if (next != nil) != (len(qs) > 0) {
					t.Fatalf("seed %d: release granted %v with %d queued", seed, next, len(qs))
				}
				if next != nil {
					g := reqs[next.Data]
					for _, q := range qs {
						if before(q, g) {
							t.Fatalf("seed %d: granted %d, passing over %d", seed, g.arrived, q.arrived)
						}
					}
					finish(g, "running")
				}
			default: // the driver's timer or the caller's cancel fires
				qs := queued()
				if len(qs) == 0 {
					continue
				}
				r := qs[rng.IntN(len(qs))]
				if !c.Remove(r.ticket) {
					t.Fatalf("seed %d: queued request %d was not removable", seed, r.arrived)
				}
				finish(r, r.ticket.Expire.String())
			}
			if c.Running() != running() || c.QueueLen() != len(queued()) {
				t.Fatalf("seed %d: core has %d running / %d queued, model %d / %d", seed, c.Running(), c.QueueLen(), running(), len(queued()))
			}
			if c.Running() > cfg.Slots || c.QueueLen() > cfg.MaxQueue {
				t.Fatalf("seed %d: %d running / %d queued exceeds %d / %d", seed, c.Running(), c.QueueLen(), cfg.Slots, cfg.MaxQueue)
			}
		}
		for _, r := range reqs {
			if r.state != "queued" && r.ticket != nil && c.Remove(r.ticket) {
				t.Fatalf("seed %d: decided request %d (%s) was still in the queue", seed, r.arrived, r.state)
			}
		}
	}
}
