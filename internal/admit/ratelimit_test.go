package admit

import (
	"math"
	"testing"
	"time"
)

func TestConform(t *testing.T) {
	// 10 req/s with a burst of 3: three back-to-back requests conform, the
	// fourth must wait one 100ms interval, and an idle bucket refills.
	b, limited := (&RateLimitConfig{Rate: 10, Burst: 3}).Bucket("t")
	if !limited || b.Interval != 100*ms || b.Tau != 200*ms {
		t.Fatalf("bucket %+v limited=%v, want 100ms interval, 200ms tolerance", b, limited)
	}
	var tat time.Duration
	for _, step := range []struct {
		now  time.Duration
		want bool
	}{
		{0, true}, {0, true}, {0, true}, {0, false},
		{99 * ms, false}, {100 * ms, true}, {100 * ms, false},
		{time.Second, true}, {time.Second, true}, {time.Second, true}, {time.Second, false},
	} {
		next, ok := b.Conform(tat, step.now)
		if ok != step.want {
			t.Fatalf("request at %v with TAT %v: conforms=%v, want %v", step.now, tat, ok, step.want)
		}
		if ok {
			tat = next
		}
	}
}

func TestBucketResolution(t *testing.T) {
	cfg := RateLimitConfig{Rate: 10, Tenants: map[string]TenantLimit{
		"exempt": {},
		"tight":  {Rate: 1},
		"fast":   {Rate: 1e12, Burst: 5},
	}}
	cfg.Normalize()
	if !cfg.Enabled() {
		t.Fatal("config with a default rate reports disabled")
	}
	if b, limited := cfg.Bucket("anyone"); !limited || b.Interval != 100*ms || b.Tau != 0 {
		t.Fatalf("default bucket %+v limited=%v, want 100ms interval, burst raised to 1", b, limited)
	}
	if _, limited := cfg.Bucket("exempt"); limited {
		t.Fatal("an override with Rate 0 did not exempt its tenant")
	}
	if b, limited := cfg.Bucket("tight"); !limited || b.Interval != time.Second || b.Tau != 0 {
		t.Fatalf("tight bucket %+v limited=%v, want 1s interval", b, limited)
	}
	// A rate above 1e9 req/s would round the interval to zero and let every
	// request through a "limited" bucket forever; it is clamped to 1ns.
	if b, _ := cfg.Bucket("fast"); b.Interval != 1 || b.Tau != 4 {
		t.Fatalf("fast bucket %+v, want the 1ns clamp", b)
	}

	only := RateLimitConfig{Tenants: map[string]TenantLimit{"tight": {Rate: 1}}}
	only.Normalize()
	if _, limited := only.Bucket("anyone"); limited || !only.Enabled() {
		t.Fatal("an override-only config must limit its tenant and nobody else")
	}
	// A finite burst or interval past the largest Duration saturates: a huge
	// burst means unbounded and a tiny rate one request per ~292 years, not
	// a negative tolerance that refuses every request or a 1ns interval.
	huge := RateLimitConfig{Rate: 100, Burst: 1e30, Tenants: map[string]TenantLimit{"slow": {Rate: 1e-12, Burst: 1}}}
	huge.Normalize()
	b, _ := huge.Bucket("anyone")
	if b.Interval != 10*ms || b.Tau != math.MaxInt64 {
		t.Fatalf("burst 1e30: bucket %+v, want 10ms interval and the largest tolerance", b)
	}
	for i, tat := 0, time.Duration(0); i < 1000; i++ {
		var ok bool
		if tat, ok = b.Conform(tat, 0); !ok {
			t.Fatalf("burst 1e30: request %d refused", i)
		}
	}
	if b, _ := huge.Bucket("slow"); b.Interval != math.MaxInt64 {
		t.Fatalf("rate 1e-12: bucket %+v, want the largest interval", b)
	}

	off := RateLimitConfig{Rate: -3}
	off.Normalize()
	if off.Enabled() {
		t.Fatal("a negative default rate enabled limiting")
	}
}
