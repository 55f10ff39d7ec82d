// Command serve runs the traversal query service: it loads one or more graph
// files produced by cmd/gengraph as shared read-only stores — in-memory CSRs
// or semi-external stores on a simulated flash device — and answers BFS /
// SSSP / CC queries over HTTP (see internal/server).
//
// Each -graph flag loads one store. The spec is
// name=path[,sem[,profile]][,shards=N][,limit=R[:B]]:
//
//	serve -listen :8080 -graph rmat16=a16.asg
//	serve -graph small=a14.asg -graph big=a22.asg,sem,FusionIO
//	serve -graph big=b16.asg,sem,shards=4       # mounts b16.asg.shard0..3
//	serve -graph hot=a16.asg,limit=50:100       # 50 req/s per tenant on this graph
//
// shards=0 (the default) auto-detects: a plain file mounts as is, otherwise
// path.shard0.. are discovered and mounted as one sharded graph.
//
// Serving policy: requests carry a tenant (X-Tenant header) and an SLO class
// (X-SLO-Class: gold/silver/bronze/batch). -admission orders the wait queue
// by class and remaining deadline budget (priority, the default) or by
// arrival (fifo); -shed deadline rejects requests whose budget cannot
// survive the estimated queue wait; -ratelimit / -tenant-limit bound each
// tenant's request rate with a token bucket.
//
// Query it with:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/graphs
//	curl -d '{"graph":"rmat16","kernel":"bfs","source":0}' localhost:8080/v1/query
//	curl -H 'X-Tenant: acme' -H 'X-SLO-Class: gold' \
//	  -d '{"graph":"rmat16","kernel":"bfs","source":0,"timeout_ms":500}' localhost:8080/v1/query
//	curl localhost:8080/metrics
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/sem"
	"repro/internal/server"
)

func main() {
	var specs []server.MountSpec
	var (
		listen       = flag.String("listen", ":8080", "address to serve HTTP on")
		queryTimeout = flag.Duration("query-timeout", 30*time.Second, "per-query traversal deadline")
	)
	servingPolicy := server.BindFlags(flag.CommandLine)
	flag.Func("graph", "graph to serve, as name=path[,sem[,profile]][,shards=N][,limit=R[:B]] (repeatable, required)", func(arg string) error {
		s, err := server.ParseMountSpec(arg)
		if err != nil {
			return err
		}
		specs = append(specs, s)
		return nil
	})
	flag.Parse()
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "serve: at least one -graph name=path is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := servingPolicy()
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	cfg.QueryTimeout = *queryTimeout

	s := server.New(cfg)
	for _, spec := range specs {
		g, err := server.MountGraph(spec, server.MountOptions{})
		if err == nil {
			err = s.AddGraph(g)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			if errors.Is(err, sem.ErrShardSpec) {
				// The files contradict the requested mount: a usage error
				// caught at startup, not per query.
				os.Exit(2)
			}
			os.Exit(1)
		}
		if n := g.Mount.Shards; n > 1 {
			log.Printf("loaded %s (%s, %d shards) from %s.shard0..%d", spec.Name, g.Storage, n, spec.Path, n-1)
		} else {
			log.Printf("loaded %s (%s) from %s", spec.Name, g.Storage, spec.Path)
		}
	}

	log.Printf("serving %d graph(s) on %s (admission=%s shed=%s)", len(specs), *listen, cfg.Admit.Order, cfg.Admit.Shedding)
	if err := http.ListenAndServe(*listen, s.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
}
