package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
)

// admission drives the shared policy core (internal/admit owns every
// decision: ordering, displacement, shedding, expiry) with goroutines and
// wall time. What this driver adds: one mutex serializing the core, a grant
// channel per parked request, one timer per parked request armed at the
// ticket's expiry, and the counters and queue-wait histogram behind /metrics.

// waiter is one parked request's rendezvous. grant is closed when the outcome
// is decided: a slot hand-off, or displacement by a better arrival (displaced
// is set before the close, so the close's happens-before edge publishes it).
type waiter struct {
	grant     chan struct{}
	displaced bool
}

// classCounters are the per-SLO-class admission outcomes surfaced under
// /metrics "admission".
type classCounters struct {
	accepted atomic.Uint64
	rejected atomic.Uint64
}

type admission struct {
	epoch time.Time // the core's clock is time.Since(epoch)

	mu   sync.Mutex
	core *admit.Core[*waiter]

	inFlight atomic.Int64
	queued   atomic.Int64
	waitHist *histogram
	classes  [admit.NumClasses]classCounters
	rejects  [admit.NumDecisions]atomic.Uint64 // by rejection reason
}

func newAdmission(cfg admit.Config) *admission {
	return &admission{epoch: time.Now(), core: admit.New[*waiter](cfg), waitHist: newHistogram()}
}

// RejectStatus maps an admission or rate-limit rejection to its HTTP status:
// the two "try again later, you are over a bound" reasons are 429, the two
// "the service cannot meet your budget" reasons are 503.
func RejectStatus(d admit.Decision) int {
	if d == admit.QueueFull || d == admit.RateLimited {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// acquire claims a traversal slot for a request of the given class and
// absolute deadline (zero = none), waiting in the policy-ordered queue if no
// slot is free. It returns admit.Run once the caller holds a slot, the
// rejection (QueueFull, QueueTimeout or DeadlineShed) otherwise, and
// ctx.Err() when the caller's request dies while waiting.
func (a *admission) acquire(ctx context.Context, class admit.Class, deadline time.Time) (admit.Decision, error) {
	dl := admit.NoDeadline
	if !deadline.IsZero() {
		dl = deadline.Sub(a.epoch)
	}
	var w *waiter
	// The clock is read under the lock so the core sees time in call order.
	a.mu.Lock()
	now := time.Since(a.epoch)
	d, t, displaced := a.core.Arrive(now, class, dl)
	if d == admit.Queued {
		w = &waiter{grant: make(chan struct{})}
		t.Data = w
	}
	a.mu.Unlock()
	if displaced != nil {
		displaced.Data.displaced = true
		close(displaced.Data.grant)
	}
	switch d {
	case admit.Run:
		a.admitted(class, 0)
		return d, nil
	case admit.Queued:
	default:
		return a.rejected(class, d), nil
	}
	a.queued.Add(1)
	defer a.queued.Add(-1)

	timer := time.NewTimer(t.ExpireAt - now)
	defer timer.Stop()
	select {
	case <-w.grant:
	case <-timer.C:
		if a.abandon(t) {
			return a.rejected(class, t.Expire), nil
		}
		// Lost the race: a releaser popped (or a newcomer displaced) this
		// waiter before abandon got the lock — the grant channel carries the
		// outcome.
		<-w.grant
	case <-ctx.Done():
		if a.abandon(t) {
			return 0, ctx.Err()
		}
		<-w.grant
	}
	if w.displaced {
		return a.rejected(class, admit.QueueFull), nil
	}
	a.admitted(class, time.Since(a.epoch)-now)
	return admit.Run, nil
}

// admitted records one successful admission after the given queue wait.
func (a *admission) admitted(class admit.Class, wait time.Duration) {
	a.inFlight.Add(1)
	a.waitHist.observe(wait)
	a.classes[class].accepted.Add(1)
}

// rejected records one rejection and returns its reason.
func (a *admission) rejected(class admit.Class, d admit.Decision) admit.Decision {
	a.rejects[d].Add(1)
	a.classes[class].rejected.Add(1)
	return d
}

// abandon removes a still-queued ticket, reporting whether the caller owns
// the outcome. False means the grant channel is or will be closed.
func (a *admission) abandon(t *admit.Ticket[*waiter]) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.core.Remove(t)
}

// release returns a slot after a traversal that ran for service; the core
// hands it directly to the best queued request, if any.
func (a *admission) release(service time.Duration) {
	a.inFlight.Add(-1)
	a.mu.Lock()
	next := a.core.Release(time.Since(a.epoch), service)
	a.mu.Unlock()
	if next != nil {
		close(next.Data.grant)
	}
}

// InFlight reports traversals currently running.
func (a *admission) InFlight() int64 { return a.inFlight.Load() }

// QueueDepth reports requests currently parked waiting for a slot.
func (a *admission) QueueDepth() int64 { return a.queued.Load() }
