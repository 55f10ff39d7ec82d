package server

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
)

func TestBindFlags(t *testing.T) {
	parse := func(args ...string) (Config, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			return Config{}, err
		}
		return cfg()
	}

	def, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if want := (admit.Config{Slots: 4, MaxQueue: 64, QueueTimeout: 2 * time.Second, Order: "priority", Shedding: "deadline"}); def.Admit != want {
		t.Fatalf("default policy %+v, want %+v", def.Admit, want)
	}
	if def.CacheEntries != 64 || def.Engine.Workers != 0 || def.RateLimit.Enabled() {
		t.Fatalf("defaults: cache %d workers %d rate limit %+v", def.CacheEntries, def.Engine.Workers, def.RateLimit)
	}

	cfg, err := parse("-concurrency", "2", "-queue", "8", "-queue-timeout", "250ms", "-admission", "fifo", "-shed", "off",
		"-ratelimit", "50:100", "-tenant-limit", "vip=0", "-tenant-limit", "bulk=5:10", "-cache", "-1", "-workers", "16")
	if err != nil {
		t.Fatal(err)
	}
	if want := (admit.Config{Slots: 2, MaxQueue: 8, QueueTimeout: 250 * time.Millisecond, Order: "fifo", Shedding: "off"}); cfg.Admit != want {
		t.Fatalf("policy %+v, want %+v", cfg.Admit, want)
	}
	rl := cfg.RateLimit
	if rl.Rate != 50 || rl.Burst != 100 || rl.Tenants["vip"] != (TenantLimit{}) || rl.Tenants["bulk"] != (TenantLimit{Rate: 5, Burst: 10}) {
		t.Fatalf("rate limit %+v", rl)
	}
	if cfg.CacheEntries != -1 || cfg.Engine.Workers != 16 {
		t.Fatalf("cache %d workers %d", cfg.CacheEntries, cfg.Engine.Workers)
	}

	for _, tc := range []struct {
		args []string
		want string // the message both binaries print after their name
	}{
		{[]string{"-admission", "lifo"}, `unknown -admission "lifo" (want priority or fifo)`},
		{[]string{"-shed", "maybe"}, `unknown -shed "maybe" (want deadline or off)`},
		{[]string{"-ratelimit", "fast"}, `-ratelimit: bad rate "fast" (want rate[:burst])`},
		{[]string{"-ratelimit", "5:-1"}, `-ratelimit: bad burst "5:-1" (want rate[:burst])`},
		{[]string{"-tenant-limit", "nobody"}, `tenant limit "nobody": want name=rate[:burst]`},
		{[]string{"-concurrency", "-1"}, "Slots -1 is negative"},
		{[]string{"-queue", "-5"}, "MaxQueue -5 is negative"},
		{[]string{"-queue-timeout", "-1s"}, "QueueTimeout -1s is negative"},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
