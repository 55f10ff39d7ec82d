package server

// Graph mounting shared by the serving binaries: cmd/serve and cmd/loadgen
// (in-process mode) both turn a -graph flag into a server.Graph, so the
// spec grammar and the storage-layer assembly live here once.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mount"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// MountSpec is one parsed -graph flag:
// name=path[,sem[,profile]][,shards=N][,limit=R[:B]].
type MountSpec struct {
	Name    string
	Path    string
	SEM     bool
	Profile string
	Shards  int // 0 = auto-detect from the files present
	// Limit is a per-graph tenant rate limit override (nil = server-wide).
	Limit *RateLimitConfig
}

// ParseMountSpec parses a -graph argument. The per-graph limit option
// overrides the server-wide rate limit for queries against this graph.
func ParseMountSpec(arg string) (MountSpec, error) {
	var s MountSpec
	name, rest, ok := strings.Cut(arg, "=")
	if !ok || name == "" || rest == "" {
		return s, fmt.Errorf("graph spec %q: want name=path[,sem[,profile]][,shards=N][,limit=R[:B]]", arg)
	}
	s.Name = name
	parts := strings.Split(rest, ",")
	s.Path = parts[0]
	s.Profile = "FusionIO"
	for _, opt := range parts[1:] {
		switch {
		case opt == "sem":
			s.SEM = true
		case strings.HasPrefix(opt, "shards="):
			n, err := strconv.Atoi(strings.TrimPrefix(opt, "shards="))
			if err != nil || n < 0 {
				return s, fmt.Errorf("graph spec %q: bad shard count %q", arg, opt)
			}
			s.Shards = n
		case strings.HasPrefix(opt, "limit="):
			rate, burst, err := ParseRateSpec(strings.TrimPrefix(opt, "limit="))
			if err != nil {
				return s, fmt.Errorf("graph spec %q: %w", arg, err)
			}
			s.Limit = &RateLimitConfig{Rate: rate, Burst: burst}
		case s.SEM:
			s.Profile = opt
		default:
			return s, fmt.Errorf("graph spec %q: unknown option %q (want \"sem\", \"shards=N\", or \"limit=R[:B]\")", arg, opt)
		}
	}
	if _, _, err := sem.ShardPaths(s.Path, s.Shards); err != nil {
		return s, fmt.Errorf("graph %q: %w", s.Name, err)
	}
	if s.SEM {
		if _, err := ssd.ProfileByName(s.Profile); err != nil {
			return s, fmt.Errorf("graph %q: %w", s.Name, err)
		}
	}
	return s, nil
}

// ParseRateSpec parses "rate[:burst]" (requests/second, requests) as used by
// the -ratelimit and -tenant-limit flags and the graph spec limit option.
func ParseRateSpec(arg string) (rate, burst float64, err error) {
	rateStr, burstStr, hasBurst := strings.Cut(arg, ":")
	if rate, err = strconv.ParseFloat(rateStr, 64); err != nil || rate < 0 {
		return 0, 0, fmt.Errorf("bad rate %q (want rate[:burst])", arg)
	}
	if hasBurst {
		if burst, err = strconv.ParseFloat(burstStr, 64); err != nil || burst < 0 {
			return 0, 0, fmt.Errorf("bad burst %q (want rate[:burst])", arg)
		}
	}
	return rate, burst, nil
}

// MountOptions are the storage-stack options shared by every graph a server
// mounts (see mount.Options). MountGraph fills in SEM, Profile and Shards
// from the graph's own spec.
type MountOptions = mount.Options

// MountGraph opens one graph (a plain file or a complete shard set) as a
// server.Graph: decoded fully into an in-memory CSR, or mounted
// semi-externally with one block-cached simulated flash device per shard,
// whose files stay open for the life of the process.
func MountGraph(spec MountSpec, opt MountOptions) (Graph, error) {
	g := Graph{Name: spec.Name, RateLimit: spec.Limit, Storage: "im"}
	opt.SEM, opt.Shards = spec.SEM, spec.Shards
	if spec.SEM {
		var err error
		if opt.Profile, err = ssd.ProfileByName(spec.Profile); err != nil {
			return g, err
		}
		g.Storage = "sem"
	}
	m, err := mount.Files(spec.Path, opt)
	if err != nil {
		return g, fmt.Errorf("graph %q: %w", spec.Name, err)
	}
	g.Adj, g.Mount = m.Adj, m
	return g, nil
}
