package core

import (
	"sync/atomic"

	"repro/internal/invariant"
)

// Terminator implements the paper's asynchronous termination detection (the
// pri_q_visit.wait() of §III): an atomic counter of queued-but-unfinished
// visitors. A push increments the counter *before* the visitor is enqueued
// (or buffered in a mailbox outbox), and the owning worker decrements it only
// *after* the visit completes, so any visitors pushed during the visit keep
// the count positive. The traversal has terminated exactly when the counter
// reaches zero.
//
// The counter is created holding one extra "init token" so it cannot reach
// zero while the caller is still issuing initial pushes; Release drops the
// token when initialization is complete.
//
// The protocol counts work units, not queues, so it is independent of the
// queueing discipline.
type Terminator struct {
	// outstanding counts queued-or-executing visitors plus the init token.
	// Every Start and Finish from every worker hits this cell, making it the
	// hottest word in the engine; the pads give it (and peak) a cache line
	// each, so Finish's decrement — which never touches peak — does not drag
	// the CAS loop's line along, and neither cell false-shares with whatever
	// the allocator places next to the Terminator.
	outstanding atomic.Int64
	_           [56]byte
	// peak is a monotone high-water mark of outstanding, maintained with a
	// CompareAndSwap loop so concurrent pushes can never overwrite a larger
	// observed peak with a smaller one.
	peak atomic.Int64
	_    [56]byte
}

// NewTerminator returns a Terminator holding the init token.
func NewTerminator() *Terminator {
	t := &Terminator{}
	t.outstanding.Store(1)
	return t
}

// Start registers one unit of outstanding work. Call before making the work
// visible to any consumer.
func (t *Terminator) Start() {
	out := t.outstanding.Add(1)
	for {
		p := t.peak.Load()
		if out <= p || t.peak.CompareAndSwap(p, out) {
			return
		}
	}
}

// Finish completes one unit of work and reports whether the computation has
// terminated (counter reached zero).
func (t *Terminator) Finish() bool {
	n := t.outstanding.Add(-1)
	if invariant.Enabled && n < 0 {
		// A negative count means a Finish without a matching Start (or a
		// double Release): termination would have been declared while work
		// could still be outstanding — the protocol's worst failure mode,
		// normally visible only as a rare lost-update hang or wrong answer.
		invariant.Failf("terminator underflow: outstanding work count %d < 0", n)
	}
	return n == 0
}

// Release drops the init token once the caller has issued every initial unit
// of work, and reports whether the computation already terminated (no work
// was ever outstanding, or all of it finished before Release).
func (t *Terminator) Release() bool {
	return t.Finish()
}

// Outstanding reports the current count, including the init token while held.
// Intended for diagnostics; the value is immediately stale under concurrency.
func (t *Terminator) Outstanding() int64 {
	return t.outstanding.Load()
}

// Peak reports the maximum number of simultaneously outstanding work units
// observed, excluding the init token — the paper's available path-parallelism
// measurement (§III-B1).
func (t *Terminator) Peak() int64 {
	p := t.peak.Load() - 1 // exclude the init token
	if p < 0 {
		return 0
	}
	return p
}
