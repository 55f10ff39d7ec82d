// Command bench regenerates the paper's evaluation: Figure 1, Figure 2,
// Tables I-V, and the ablation studies from DESIGN.md, printing each as an
// aligned table whose rows mirror the paper's.
//
// Examples:
//
//	bench                 # the full suite at default (scaled-down) sizes
//	bench -exp table4     # one experiment
//	bench -scales 12,13   # smaller/larger workloads
//	bench -quiet          # suppress progress lines on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: all, fig1, fig2, table1, table2, table3, table4, table5, ablation, direction")
		scales    = flag.String("scales", "", "comma-separated log2 vertex counts for in-memory tables")
		semScales = flag.String("semscales", "", "comma-separated log2 vertex counts for SEM tables")
		degree    = flag.Int("degree", 0, "average out-degree (default 16)")
		seed      = flag.Uint64("seed", 0, "workload seed (default 42)")
		memModel  = flag.Bool("memmodel", true, "apply the DRAM-latency model to in-memory runs")
		compress  = flag.Bool("compress", false, "mount SEM tables on the delta+varint compressed (v2) edge format")
		shards    = flag.Int("shards", 0, "mount SEM tables as an N-way partition, one device per shard (0 or 1 = one store)")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()

	o := harness.Defaults()
	o.Shards = *shards
	if err := o.Options.Validate(); err != nil {
		usage(err)
	}
	if !*quiet {
		o.Log = os.Stderr
	}
	if *scales != "" {
		v, err := parseInts(*scales)
		if err != nil {
			usage(fmt.Errorf("-scales: %v", err))
		}
		o.Scales = v
	}
	if *semScales != "" {
		v, err := parseInts(*semScales)
		if err != nil {
			usage(fmt.Errorf("-semscales: %v", err))
		}
		o.SEMScales = v
	}
	if *degree > 0 {
		o.Degree = *degree
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	o.MemModel = *memModel
	o.Compressed = *compress

	start := time.Now()
	tables, err := run(*exp, o)
	if err != nil {
		if strings.HasPrefix(err.Error(), "unknown -exp") {
			usage(err)
		}
		fatal(err)
	}
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "\nbench: %s completed in %s\n", *exp, time.Since(start).Round(time.Millisecond))
}

func run(exp string, o harness.Options) ([]*harness.Table, error) {
	one := func(t *harness.Table, err error) ([]*harness.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*harness.Table{t}, nil
	}
	switch exp {
	case "all":
		return harness.All(o)
	case "fig1":
		return one(harness.Figure1(o))
	case "fig2":
		return one(harness.Figure2(o))
	case "table1":
		return one(harness.Table1(o))
	case "table2":
		return one(harness.Table2(o))
	case "table3":
		return one(harness.Table3(o))
	case "table4":
		return one(harness.Table4(o))
	case "table5":
		return one(harness.Table5(o))
	case "ablation":
		return harness.Ablations(o)
	case "direction":
		return one(harness.AblationDirection(o))
	default:
		return nil, fmt.Errorf("unknown -exp %q", exp)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// fatal reports a runtime failure (exit 1); usage reports a bad invocation
// (exit 2, the same convention cmd/traverse and cmd/serve follow for flag
// validation).
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
