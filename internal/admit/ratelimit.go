package admit

import "time"

// Per-tenant rate limiting: admission bounds how much work runs at once, but
// nothing stops one tenant from filling the whole queue and shedding
// everyone else's traffic before priority ordering can help. A token bucket
// per tenant caps each tenant's sustained request rate ahead of admission,
// so the queue only ever sees traffic each tenant is entitled to send.
//
// The bucket is the GCRA (virtual-scheduling) form: one word of state holds
// the theoretical arrival time (TAT) of the next conforming request. A
// request at time t conforms when max(TAT, t) - t <= (burst-1)*interval;
// conforming requests advance TAT by one emission interval. No token
// counters to refill, so the server can keep the word in an atomic and
// advance it with a CAS — the vsa atomic-limiter idiom.

// TenantLimit overrides the default per-tenant rate for one named tenant.
// Rate <= 0 exempts the tenant from limiting entirely.
type TenantLimit struct {
	// Rate is the sustained request rate in requests/second.
	Rate float64
	// Burst is the instantaneous burst allowance in requests; values below 1
	// are raised to 1.
	Burst float64
}

// RateLimitConfig configures per-tenant token buckets. The zero value
// disables limiting.
type RateLimitConfig struct {
	// Rate is the default sustained per-tenant request rate in
	// requests/second; 0 disables limiting for tenants without an override.
	Rate float64
	// Burst is the default instantaneous burst allowance in requests;
	// values below 1 are raised to 1 when Rate is set.
	Burst float64
	// Tenants overrides Rate/Burst for named tenants.
	Tenants map[string]TenantLimit
}

// Normalize clamps out-of-range values in place.
func (c *RateLimitConfig) Normalize() {
	if c.Rate < 0 {
		c.Rate = 0
	}
	if c.Rate > 0 && c.Burst < 1 {
		c.Burst = 1
	}
	for name, t := range c.Tenants {
		if t.Rate > 0 && t.Burst < 1 {
			t.Burst = 1
			c.Tenants[name] = t
		}
	}
}

// Enabled reports whether any tenant can ever be limited.
func (c *RateLimitConfig) Enabled() bool {
	if c.Rate > 0 {
		return true
	}
	for _, t := range c.Tenants {
		if t.Rate > 0 {
			return true
		}
	}
	return false
}

// Bucket resolves tenant's GCRA parameters from a normalized config: its
// override when it has one, the default rate otherwise. limited is false for
// a tenant exempt from limiting.
func (c *RateLimitConfig) Bucket(tenant string) (b Bucket, limited bool) {
	rate, burst := c.Rate, c.Burst
	if t, ok := c.Tenants[tenant]; ok {
		rate, burst = t.Rate, t.Burst
	}
	if rate <= 0 {
		return Bucket{}, false
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval < 1 {
		interval = 1
	}
	return Bucket{Interval: interval, Tau: time.Duration((burst - 1) * float64(interval))}, true
}

// Bucket is one tenant's GCRA parameters; the TAT lives with the driver.
type Bucket struct {
	// Interval is the time between conforming requests at the sustained rate.
	Interval time.Duration
	// Tau is the burst tolerance: (burst-1) * Interval.
	Tau time.Duration
}

// Conform is the GCRA step: whether a request at now conforms given the
// bucket's current TAT, and the TAT to store when it does. Times are offsets
// on the driver's clock.
func (b Bucket) Conform(tat, now time.Duration) (next time.Duration, ok bool) {
	if now > tat {
		tat = now
	}
	if tat-now > b.Tau {
		return 0, false
	}
	return tat + b.Interval, true
}
