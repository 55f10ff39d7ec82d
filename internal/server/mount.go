package server

// Graph mounting shared by the serving binaries: cmd/serve and cmd/loadgen
// (in-process mode) both turn a -graph flag into a server.Graph, so the
// spec grammar and the storage-layer assembly live here once.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
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

// MountOptions tune how MountGraph assembles the storage stack.
type MountOptions struct {
	// Prefetch is the engine pop-window size; SEM mounts enable the
	// prefetcher when it exceeds 1.
	Prefetch int
	// PrefetchGap is the max byte gap coalesced into one prefetch read.
	PrefetchGap int
	// CachePolicy selects the block-cache eviction policy of SEM mounts
	// (zero value = legacy LRU; see sem.CachePolicyConfig).
	CachePolicy sem.CachePolicyConfig
	// Direction is the engine's BFS direction policy; non-top-down
	// in-memory mounts pair the CSR with its transpose (semi-external
	// mounts must carry an in-edge section; AddGraph enforces that).
	Direction core.Direction
}

// MountGraph opens one graph (a plain file or a complete shard set) as a
// server.Graph: decoded fully into an in-memory CSR, or mounted
// semi-externally with one block-cached simulated flash device per shard.
func MountGraph(spec MountSpec, opt MountOptions) (Graph, error) {
	g := Graph{Name: spec.Name, RateLimit: spec.Limit}
	paths, sharded, err := sem.ShardPaths(spec.Path, spec.Shards)
	if err != nil {
		return g, err
	}
	backings := make([]*ssd.FileBacking, len(paths))
	for i, pth := range paths {
		f, err := os.Open(pth)
		if err != nil {
			return g, err
		}
		// The backing mmap-reads the file for the process lifetime; nothing
		// to close eagerly here.
		if backings[i], err = ssd.NewFileBacking(f); err != nil {
			_ = f.Close()
			return g, err
		}
	}
	if !spec.SEM {
		if sharded {
			stores := make([]sem.Store, len(backings))
			for i, b := range backings {
				stores[i] = b
			}
			csr, err := sem.LoadShardedCSR[uint32](stores)
			if err != nil {
				return g, err
			}
			if g.Adj, err = imAdjacency(csr, opt.Direction); err != nil {
				return g, err
			}
			g.Storage, g.Shards = "im", len(stores)
			return g, nil
		}
		csr, err := sem.LoadCSR[uint32](backings[0])
		if err != nil {
			return g, err
		}
		if g.Adj, err = imAdjacency(csr, opt.Direction); err != nil {
			return g, err
		}
		g.Storage = "im"
		return g, nil
	}
	p, err := ssd.ProfileByName(spec.Profile)
	if err != nil {
		return g, err
	}
	devs := make([]*ssd.Device, len(backings))
	caches := make([]*sem.CachedStore, len(backings))
	sgs := make([]*sem.Graph[uint32], len(backings))
	for i, b := range backings {
		devs[i] = ssd.New(p, b)
		if caches[i], err = sem.NewCachedStoreRA(devs[i], 4096, b.Size()/2, 8); err != nil {
			return g, err
		}
		if sgs[i], err = sem.Open[uint32](caches[i]); err != nil {
			return g, err
		}
		if opt.CachePolicy.StateAware() {
			sgs[i].EnableStateCache()
		}
		if opt.Prefetch > 1 {
			sgs[i].EnablePrefetch(sem.PrefetchConfig{MaxGap: opt.PrefetchGap})
		}
	}
	g.SEMGraphs = sgs
	if sharded {
		mounted, err := sem.MountShards(sgs)
		if err != nil {
			return g, err
		}
		g.Adj, g.Storage = mounted, "sem"
		g.Devices, g.BlockCaches, g.Shards = devs, caches, len(sgs)
		return g, nil
	}
	g.Adj, g.Storage, g.Device, g.BlockCache = sgs[0], "sem", devs[0], caches[0]
	return g, nil
}

// imAdjacency wraps an in-memory CSR for the requested direction: top-down
// serves the CSR as is, anything else pairs it with its transpose.
func imAdjacency(csr *graph.CSR[uint32], dir core.Direction) (graph.Adjacency[uint32], error) {
	if dir == core.DirectionTopDown {
		return csr, nil
	}
	rev, err := graph.Transpose(csr)
	if err != nil {
		return nil, err
	}
	return graph.NewBidi[uint32](csr, rev)
}
