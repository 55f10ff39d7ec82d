package server

import (
	"testing"
	"time"
)

// TestHistogramQuantile holds the latency quantiles to the nearest rank: the
// q-quantile of n observations is the bucket of the ⌈q·n⌉-th smallest.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		h.observe(d)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.01, time.Millisecond},
		{0.33, time.Millisecond},
		{0.50, 10 * time.Millisecond},
		{0.99, 100 * time.Millisecond},
		{1, 100 * time.Millisecond},
	} {
		if got := h.quantile(tc.q); got != tc.want {
			t.Errorf("p%g of 1, 10 and 100 ms = %v, want %v", 100*tc.q, got, tc.want)
		}
	}
	h.observe(time.Minute) // past the last bound
	if got := h.quantile(1); got != latencyBounds[len(latencyBounds)-1] {
		t.Errorf("max with an overflow observation = %v, want the largest bound", got)
	}
}
