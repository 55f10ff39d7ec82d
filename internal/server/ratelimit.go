package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
)

// RateLimitConfig and TenantLimit configure per-tenant token buckets; the
// policy (override resolution, the GCRA conformance step) is internal/admit's.
type (
	RateLimitConfig = admit.RateLimitConfig
	TenantLimit     = admit.TenantLimit
)

// tokenBucket is one tenant's GCRA state: the theoretical arrival time of
// the next conforming request, in nanoseconds since the limiter started,
// advanced lock-free with a CAS around the shared conformance step.
type tokenBucket struct {
	admit.Bucket
	tat atomic.Int64
}

// limiter holds one scope's per-tenant buckets (the server-wide scope, or a
// per-graph override). Buckets materialize on a tenant's first request.
type limiter struct {
	cfg     RateLimitConfig
	start   time.Time
	buckets sync.Map // tenant name -> *tokenBucket (nil entry = exempt)

	allowed  atomic.Uint64
	rejected atomic.Uint64
}

func newLimiter(cfg RateLimitConfig) *limiter {
	cfg.Normalize()
	if !cfg.Enabled() {
		return nil
	}
	return &limiter{cfg: cfg, start: time.Now()}
}

// allow reports whether tenant's request conforms to its bucket. A nil
// limiter (limiting disabled) allows everything.
func (l *limiter) allow(tenant string) bool {
	if l == nil {
		return true
	}
	v, ok := l.buckets.Load(tenant)
	if !ok {
		var b *tokenBucket
		if gcra, limited := l.cfg.Bucket(tenant); limited {
			b = &tokenBucket{Bucket: gcra}
		}
		v, _ = l.buckets.LoadOrStore(tenant, b)
	}
	if b, _ := v.(*tokenBucket); b != nil {
		now := time.Since(l.start)
		for {
			tat := b.tat.Load()
			next, ok := b.Conform(time.Duration(tat), now)
			if !ok {
				l.rejected.Add(1)
				return false
			}
			if b.tat.CompareAndSwap(tat, int64(next)) {
				break
			}
		}
	}
	l.allowed.Add(1)
	return true
}

// Counters snapshots allowed/rejected totals for /metrics.
func (l *limiter) Counters() (allowed, rejected uint64) {
	if l == nil {
		return 0, 0
	}
	return l.allowed.Load(), l.rejected.Load()
}
