// Package load is the production traffic simulator for the traversal query
// service: an open-loop workload generator plus a discrete-event policy
// simulator plus a report layer, turning "handles heavy traffic" from a
// claim into a measured, policy-tunable property.
//
// Closed-loop benchmarks (fire, wait, fire again) cannot overload a server:
// the benchmark slows down exactly as fast as the server does. Real users
// are open-loop — arrivals keep coming at their own rate regardless of how
// the server is doing — so the generator draws an arrival schedule from a
// stochastic process (Poisson or Gamma inter-arrivals), a source-vertex
// distribution (hot-key Zipf or uniform), a kernel blend (BFS/SSSP/CC), and
// a multi-tenant profile where each tenant carries an SLO class and a
// latency budget. Everything is drawn from one seeded RNG, so the same seed
// always produces the identical schedule: policy comparisons (FIFO vs
// priority admission, limiter on vs off) see the same offered load.
//
// Three ways to spend a schedule:
//
//   - Runner + HTTPTarget fires it at a live cmd/serve over HTTP;
//   - Runner + HandlerTarget fires it at an in-process server.Server with
//     no network between them (tests, cmd/loadgen -graph mode);
//   - Simulate replays it through a discrete-event model of the server's
//     admission pipeline in virtual time — deterministic to the byte, which
//     is what CI diffs and the EXPERIMENTS.md policy tables are built on.
//
// All three produce []Outcome; BuildReport folds outcomes into per-tenant
// and per-class latency percentiles, goodput (replies within deadline),
// rejection rates by cause, and a Jain fairness index, rendered as JSON or
// a human table.
package load

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/admit"
)

// Tenant is one traffic source in the workload: a share of the arrival
// stream tagged with an identity, an SLO class, and a latency budget.
type Tenant struct {
	// Name is the tenant identity sent in the X-Tenant header.
	Name string `json:"name"`
	// Class is the SLO class name sent in the X-SLO-Class header:
	// gold, silver, bronze, or batch.
	Class string `json:"class"`
	// Weight is the tenant's share of arrivals relative to the other
	// tenants' weights.
	Weight float64 `json:"weight"`
	// Deadline is the per-request latency budget, sent as timeout_ms; a
	// reply after it does not count toward goodput.
	Deadline time.Duration `json:"deadline"`
}

// Config describes one workload. Zero values select the documented
// defaults; Validate normalizes in place and rejects contradictions.
type Config struct {
	// Graph names the served graph to query.
	Graph string
	// Requests is the total number of arrivals to schedule. Default 1000.
	Requests int
	// Rate is the mean arrival rate in requests/second (open-loop: arrivals
	// ignore how the server is doing). Default 100.
	Rate float64
	// Arrival selects the inter-arrival process: "poisson" (default) or
	// "gamma" (burstier below shape 1, smoother above).
	Arrival string
	// GammaShape is the Gamma shape parameter k; the scale is derived so
	// the mean inter-arrival stays 1/Rate. Default 4 (smoother than
	// Poisson); values below 1 give heavy bursts. Ignored for poisson.
	GammaShape float64
	// Source selects the source-vertex distribution: "zipf" (default,
	// hot-key skew) or "uniform".
	Source string
	// ZipfS is the Zipf exponent s (rank r drawn with probability
	// proportional to 1/r^s). Default 1.1. Ignored for uniform.
	ZipfS float64
	// Vertices is the source-vertex id space (ids 0..Vertices-1). Required.
	Vertices uint64
	// Mix weighs the kernel blend, e.g. {"bfs": 6, "sssp": 3, "cc": 1}.
	// Default all-BFS. CC requests normalize their source to 0.
	Mix map[string]float64
	// Tenants is the multi-tenant profile. Default: one bronze tenant
	// "anon" with a 1s deadline.
	Tenants []Tenant
	// Seed seeds every random draw; the same seed reproduces the identical
	// schedule. Default 1.
	Seed uint64
	// NoCache sets no_cache on every query so each request costs a real
	// traversal — the mode policy comparisons run under.
	NoCache bool
}

// Validate normalizes defaults in place and reports the first
// contradiction. It must be called (directly or via BuildSchedule) before
// the config is used.
func (c *Config) Validate() error {
	if c.Graph == "" {
		c.Graph = "g"
	}
	if c.Requests == 0 {
		c.Requests = 1000
	}
	if c.Requests < 0 {
		return fmt.Errorf("load: Requests %d is negative", c.Requests)
	}
	if c.Rate == 0 {
		c.Rate = 100
	}
	if c.Rate < 0 {
		return fmt.Errorf("load: Rate %v is negative", c.Rate)
	}
	switch c.Arrival {
	case "":
		c.Arrival = "poisson"
	case "poisson", "gamma":
	default:
		return fmt.Errorf("load: unknown Arrival %q (want poisson or gamma)", c.Arrival)
	}
	if c.GammaShape == 0 {
		c.GammaShape = 4
	}
	if c.GammaShape < 0 {
		return fmt.Errorf("load: GammaShape %v is negative", c.GammaShape)
	}
	switch c.Source {
	case "":
		c.Source = "zipf"
	case "zipf", "uniform":
	default:
		return fmt.Errorf("load: unknown Source %q (want zipf or uniform)", c.Source)
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.ZipfS < 0 {
		return fmt.Errorf("load: ZipfS %v is negative", c.ZipfS)
	}
	if c.Vertices == 0 {
		return fmt.Errorf("load: Vertices must be set (source id space)")
	}
	if len(c.Mix) == 0 {
		c.Mix = map[string]float64{"bfs": 1}
	}
	var mixTotal float64
	for kernel, w := range c.Mix {
		switch kernel {
		case "bfs", "sssp", "cc":
		default:
			return fmt.Errorf("load: unknown kernel %q in Mix", kernel)
		}
		if w < 0 {
			return fmt.Errorf("load: Mix[%q] weight %v is negative", kernel, w)
		}
		mixTotal += w
	}
	if mixTotal <= 0 {
		return fmt.Errorf("load: Mix has no positive weight")
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []Tenant{{Name: "anon", Class: "bronze", Weight: 1, Deadline: time.Second}}
	}
	var tenantTotal float64
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("load: tenant %d has no name", i)
		}
		class, ok := admit.ClassByName(t.Class)
		if !ok && t.Class != "" {
			return fmt.Errorf("load: tenant %q: unknown class %q", t.Name, t.Class)
		}
		t.Class = class.String()
		if t.Weight < 0 {
			return fmt.Errorf("load: tenant %q: weight %v is negative", t.Name, t.Weight)
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.Deadline <= 0 {
			t.Deadline = time.Second
		}
		tenantTotal += t.Weight
	}
	if tenantTotal <= 0 {
		return fmt.Errorf("load: tenants have no positive weight")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// kernels returns the mix as deterministic (name, weight) pairs, sorted so
// scheduling never depends on map iteration order.
func (c *Config) kernels() ([]string, []float64) {
	names := make([]string, 0, len(c.Mix))
	for k := range c.Mix {
		names = append(names, k)
	}
	sort.Strings(names)
	weights := make([]float64, len(names))
	for i, k := range names {
		weights[i] = c.Mix[k]
	}
	return names, weights
}
