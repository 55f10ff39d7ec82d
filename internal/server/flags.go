package server

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/admit"
)

// BindFlags registers on fs the serving-policy flags cmd/serve and
// cmd/loadgen share: -concurrency -queue -queue-timeout -admission -shed
// -ratelimit -tenant-limit -cache -workers. After fs.Parse, the returned
// function yields the Config they fill, or a usage error (the binaries exit
// 2 on it).
func BindFlags(fs *flag.FlagSet) func() (Config, error) {
	var cfg Config
	fs.IntVar(&cfg.Admit.Slots, "concurrency", 4, "max traversals running at once")
	fs.IntVar(&cfg.Admit.MaxQueue, "queue", 64, "max requests waiting for a traversal slot")
	fs.DurationVar(&cfg.Admit.QueueTimeout, "queue-timeout", 2*time.Second, "max wait for a traversal slot before 503")
	fs.StringVar(&cfg.Admit.Order, "admission", admit.OrderPriority, "admission queue order: priority (SLO class + deadline) or fifo")
	fs.StringVar(&cfg.Admit.Shedding, "shed", admit.ShedDeadline, "deadline shedding: deadline (reject budget-exhausted requests early) or off")
	rateLimit := fs.String("ratelimit", "", "per-tenant token-bucket rate as rate[:burst] in req/s (empty = unlimited)")
	fs.Func("tenant-limit", "per-tenant rate override, as name=rate[:burst] (repeatable)", func(arg string) error {
		name, spec, ok := strings.Cut(arg, "=")
		if !ok || name == "" {
			return fmt.Errorf("tenant limit %q: want name=rate[:burst]", arg)
		}
		rate, burst, err := ParseRateSpec(spec)
		if err != nil {
			return err
		}
		if cfg.RateLimit.Tenants == nil {
			cfg.RateLimit.Tenants = make(map[string]TenantLimit)
		}
		cfg.RateLimit.Tenants[name] = TenantLimit{Rate: rate, Burst: burst}
		return nil
	})
	fs.IntVar(&cfg.CacheEntries, "cache", 64, "result-cache capacity in snapshots (negative disables)")
	fs.IntVar(&cfg.Engine.Workers, "workers", 0, "engine workers per traversal (0 = default)")
	return func() (Config, error) {
		if o := cfg.Admit.Order; o != admit.OrderPriority && o != admit.OrderFIFO {
			return cfg, fmt.Errorf("unknown -admission %q (want priority or fifo)", o)
		}
		if s := cfg.Admit.Shedding; s != admit.ShedDeadline && s != admit.ShedOff {
			return cfg, fmt.Errorf("unknown -shed %q (want deadline or off)", s)
		}
		if *rateLimit != "" {
			var err error
			if cfg.RateLimit.Rate, cfg.RateLimit.Burst, err = ParseRateSpec(*rateLimit); err != nil {
				return cfg, fmt.Errorf("-ratelimit: %v", err)
			}
		}
		// The numeric flags: zero selects the default, negative is an error.
		return cfg, cfg.Admit.Validate()
	}
}
