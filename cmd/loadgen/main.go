// Command loadgen drives the traversal query service with a seeded,
// open-loop workload and reports per-tenant / per-SLO-class latency,
// goodput, and rejection breakdowns (see internal/load).
//
// Three targets, exactly one of which must be selected:
//
//	loadgen -url http://127.0.0.1:8080 -name rmat16 -n 2000 -rate 200
//	    fires at a live server; the vertex count is read from /v1/graphs.
//
//	loadgen -graph rmat16=a16.asg -n 2000 -rate 200
//	    mounts the graph and serves it in-process — no network, same
//	    admission pipeline. The policy flags (-admission, -shed, -ratelimit,
//	    -tenant-limit, -concurrency, -queue, -queue-timeout, -cache)
//	    configure that embedded server.
//
//	loadgen -sim -vertices 65536 -n 50000 -rate 400
//	    replays the schedule through the discrete-event model of the server
//	    in virtual time: instant, and byte-identical for a given seed. The
//	    same policy flags configure the model; -service and -jitter shape
//	    the synthetic traversal times.
//
// Workload shape: -rate (req/s) with -arrival poisson or gamma (-gamma-shape
// sets burstiness; CV² = 1/shape), -source zipf (-zipf-s) or uniform over
// -vertices, -mix "bfs=0.7,sssp=0.3" kernel blend, and repeatable -tenant
// "name:class:weight:deadline" profiles (class is gold/silver/bronze/batch).
// Same -seed → same schedule, always.
//
// Output: a human table on stdout; -json writes the full report ("-" for
// stdout, suppressing the table).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/load"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(2)
}

func run() error {
	var (
		// Target selection.
		url     = flag.String("url", "", "live server base URL (e.g. http://127.0.0.1:8080)")
		name    = flag.String("name", "", "graph name to query (default: the -graph spec's name)")
		simMode = flag.Bool("sim", false, "simulate the server in virtual time instead of driving a real one")

		// Workload.
		n          = flag.Int("n", 1000, "number of requests")
		rate       = flag.Float64("rate", 100, "mean arrival rate, req/s")
		arrival    = flag.String("arrival", "poisson", "inter-arrival process: poisson or gamma")
		gammaShape = flag.Float64("gamma-shape", 4, "gamma shape k (CV² = 1/k; <1 is burstier than poisson)")
		source     = flag.String("source", "zipf", "source-vertex distribution: zipf or uniform")
		zipfS      = flag.Float64("zipf-s", 1.1, "zipf exponent (higher = hotter hot set)")
		vertices   = flag.Uint64("vertices", 0, "vertex-id space (required for -sim; derived from the graph otherwise)")
		mixSpec    = flag.String("mix", "bfs=1", "kernel blend, as k=w[,k=w...] over bfs, sssp, cc")
		seed       = flag.Uint64("seed", 1, "workload seed; same seed, same schedule")
		noCache    = flag.Bool("nocache", false, "set no_cache on every query (defeat the result cache)")
		jsonOut    = flag.String("json", "", "write the JSON report to this file (\"-\" for stdout)")

		// Sim-only shape.
		jitter = flag.Float64("jitter", 0.2, "sim service-time jitter fraction")
	)
	// Server / model policy (in-process and sim targets).
	servingPolicy := server.BindFlags(flag.CommandLine)
	var tenants []load.Tenant
	flag.Func("tenant", "tenant profile, as name:class:weight:deadline (repeatable; e.g. acme:gold:1:500ms)", func(arg string) error {
		t, err := parseTenant(arg)
		if err != nil {
			return err
		}
		tenants = append(tenants, t)
		return nil
	})
	var spec server.MountSpec
	var haveSpec bool
	flag.Func("graph", "graph to mount in-process, as name=path[,sem[,profile]][,shards=N]", func(arg string) error {
		s, err := server.ParseMountSpec(arg)
		if err != nil {
			return err
		}
		spec, haveSpec = s, true
		return nil
	})
	flag.Parse()

	modes := 0
	for _, on := range []bool{*url != "", haveSpec, *simMode} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		usageErr("exactly one of -url, -graph, or -sim must be given")
	}
	scfg, err := servingPolicy()
	if err != nil {
		usageErr("%v", err)
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		usageErr("%v", err)
	}
	graphName := *name
	if graphName == "" && haveSpec {
		graphName = spec.Name
	}
	cfg := load.Config{
		Graph:      graphName,
		Requests:   *n,
		Rate:       *rate,
		Arrival:    *arrival,
		GammaShape: *gammaShape,
		Source:     *source,
		ZipfS:      *zipfS,
		Vertices:   *vertices,
		Mix:        mix,
		Tenants:    tenants,
		Seed:       *seed,
		NoCache:    *noCache,
	}

	ctx := context.Background()
	var outcomes []load.Outcome
	switch {
	case *simMode:
		if cfg.Vertices == 0 {
			usageErr("-sim needs -vertices (no graph to derive it from)")
		}
		schedule, err := load.BuildSchedule(&cfg)
		if err != nil {
			return err
		}
		sim := load.SimConfig{Admit: scfg.Admit, RateLimit: scfg.RateLimit, Jitter: *jitter}
		if outcomes, err = load.Simulate(&cfg, &sim, schedule); err != nil {
			return err
		}

	case *url != "":
		target := &load.HTTPTarget{Base: *url, Graph: graphName, NoCache: *noCache}
		if graphName == "" {
			usageErr("-url needs -name to pick the graph to query")
		}
		if cfg.Vertices == 0 {
			v, err := target.Vertices(ctx)
			if err != nil {
				return fmt.Errorf("deriving -vertices from %s/v1/graphs: %w", *url, err)
			}
			cfg.Vertices = v
		}
		schedule, err := load.BuildSchedule(&cfg)
		if err != nil {
			return err
		}
		r := &load.Runner{Target: target}
		outcomes = r.Run(ctx, schedule)

	default: // in-process mount
		srv := server.New(scfg)
		g, err := server.MountGraph(spec, server.MountOptions{})
		if err != nil {
			return err
		}
		if err := srv.AddGraph(g); err != nil {
			return err
		}
		if cfg.Vertices == 0 {
			cfg.Vertices = g.Adj.NumVertices()
		}
		schedule, err := load.BuildSchedule(&cfg)
		if err != nil {
			return err
		}
		r := &load.Runner{Target: &load.HandlerTarget{Handler: srv.Handler(), Graph: graphName, NoCache: *noCache}}
		outcomes = r.Run(ctx, schedule)
	}

	report := load.BuildReport(outcomes)
	if *jsonOut != "" {
		data, err := report.JSON()
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			_, err = os.Stdout.Write(data)
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Print(report.Table())
	return nil
}

// parseTenant parses name:class:weight:deadline, e.g. acme:gold:3:500ms.
func parseTenant(arg string) (load.Tenant, error) {
	parts := strings.Split(arg, ":")
	if len(parts) != 4 {
		return load.Tenant{}, fmt.Errorf("tenant %q: want name:class:weight:deadline", arg)
	}
	w, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || w <= 0 {
		return load.Tenant{}, fmt.Errorf("tenant %q: bad weight %q", arg, parts[2])
	}
	d, err := time.ParseDuration(parts[3])
	if err != nil || d <= 0 {
		return load.Tenant{}, fmt.Errorf("tenant %q: bad deadline %q", arg, parts[3])
	}
	return load.Tenant{Name: parts[0], Class: parts[1], Weight: w, Deadline: d}, nil
}

// parseMix parses k=w[,k=w...] into a kernel weight table.
func parseMix(arg string) (map[string]float64, error) {
	mix := make(map[string]float64)
	for _, part := range strings.Split(arg, ",") {
		k, ws, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-mix %q: want k=w[,k=w...]", arg)
		}
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-mix %q: bad weight for %q", arg, k)
		}
		mix[k] = w
	}
	return mix, nil
}
