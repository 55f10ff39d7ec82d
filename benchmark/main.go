// Command benchmark is the repository's benchmark: four workloads, each putting
// a different set of layers on the blocking path, measured end to end and, in a
// separate traced run, layer by layer. See README.md in this directory.
//
// One workload, as the contract in BENCHMARK.json runs it:
//
//	benchmark -workload im-batch -seed 42 -seconds 25 -trace 0
//
// Every workload, each in a child process of its own, untraced then traced:
//
//	benchmark -seed 42 -out results.json
//
// Two such result files compared against the bounds of BENCHMARK.json:
//
//	benchmark -compare a.json b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
)

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"im-batch", "sem-cached", "sem-pipeline", "serve-open"}

type options struct {
	workload string
	seed     uint64
	seconds  int
	budget   time.Duration // how long this process measures; tests set it below 1 s
	// part is the index of this process among the measuring processes of
	// one untraced run, or -1 when it is the run itself.
	part     int
	trace    bool
	smoke    bool
	traceOut string
	out      string
	runs     int
	compare  bool
	spec     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 42, "seed of every generated input: graphs, source lists, schedules")
	fs.IntVar(&o.seconds, "seconds", 25, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes (2^10 graphs, 1k-iteration probes) for the smoke test; numbers mean nothing")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the recorded spans to this file, one JSON object per line")
	fs.StringVar(&o.out, "out", "", "all-workloads mode: write the results to this file")
	fs.IntVar(&o.runs, "runs", 1, "all-workloads mode: untraced runs per workload (a set for -compare needs at least 5)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	fs.StringVar(&o.spec, "spec", "", "path of BENCHMARK.json for -compare (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	var budgetMs int
	fs.IntVar(&o.part, "part", -1, "internal: measure as process number `n` of an untraced run and print its raw timings")
	fs.IntVar(&budgetMs, "budget-ms", 0, "internal: with -part, how long this process measures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	o.budget = time.Duration(o.seconds) * time.Second
	if o.part >= 0 {
		o.budget = time.Duration(budgetMs) * time.Millisecond
	}
	if o.seconds < 1 || o.runs < 1 || trace < 0 || trace > 1 || (o.part >= 0 && (budgetMs < 1 || o.trace)) {
		fmt.Fprintln(stderr, "benchmark: -seconds and -runs must be at least 1, -trace 0 or 1")
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), o.spec, stdout, stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.workload == "" {
		return runAll(ctx, o, stdout, stderr)
	}
	measure := runWorkload
	if !o.trace && o.part < 0 {
		measure = runPooled
	}
	res, err := measure(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	if o.part >= 0 {
		line, err := json.Marshal(partReport{res.Attempted, res.Failed, res.timings})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %s %s\n", d.Name, formatValue(res.Metrics[d.Name].Value), d.Unit)
	}
	fmt.Fprintf(stdout, "%-32s %s\n", "samples", res.samples)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// partReport is what one measuring process of an untraced run prints.
type partReport struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Timings   *timings `json:"timings"`
}

// measuringProcs is how many processes an untraced run of the workload
// measures in.
func measuringProcs(workload string) int {
	if spec, ok := batchSpecs[workload]; ok {
		return spec.procs
	}
	return serveOpen.procs
}

// runPooled is an untraced run: it measures in several processes (re-execs of
// this binary with -part), one after the other, each setting the workload up
// for itself, drawing its own part of the run's inputs from the seed and
// measuring for an equal share of -seconds, and pools their timings. See
// timings for why one process is not enough.
func runPooled(ctx context.Context, o options) (*result, error) {
	if _, ok := batchSpecs[o.workload]; !ok && o.workload != "serve-open" {
		return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n := measuringProcs(o.workload)
	if o.smoke {
		n = 2
	}
	res := newResult(endToEnd)
	pooled := &timings{}
	for part := 0; part < n; part++ {
		args := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-trace", "0",
			"-part", strconv.Itoa(part), "-budget-ms", strconv.FormatInt(o.budget.Milliseconds()/int64(n), 10)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", part, err)
		}
		var rep partReport
		if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil || rep.Timings == nil {
			return nil, fmt.Errorf("measuring process %d printed no timings: %v", part, err)
		}
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		pooled.add(rep.Timings)
	}
	pooled.endToEnd(res)
	res.Correct = res.Failed == 0
	return res, nil
}

// partSeed is the seed process number part of a run draws its inputs from:
// each measuring process asks for other sources and other arrivals, so the
// run averages over them, and the same -seed still gives the same inputs.
func partSeed(o options) uint64 {
	return o.seed<<8 | uint64(max(o.part, 0))
}

// runWorkload runs one workload in this process. Files it needs live in a
// temporary directory that is removed on every return path.
func runWorkload(ctx context.Context, o options) (*result, error) {
	dir, err := os.MkdirTemp("", "repro-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.smoke {
		probeIters = 1000
	}
	if spec, ok := batchSpecs[o.workload]; ok {
		if o.smoke {
			spec = spec.smokeSized()
		}
		return runBatch(ctx, spec, o, dir)
	}
	if o.workload == "serve-open" {
		spec := serveOpen
		if o.smoke {
			spec = spec.smokeSized()
		}
		return runServe(ctx, spec, o, dir)
	}
	return nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames, ", "))
}

func runBatch(ctx context.Context, spec batchSpec, o options, dir string) (*result, error) {
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var setups []setupTimes
	// Only the last two mounts are used (the last one alone by an untraced
	// run); earlier ones are closed as soon as they have been timed.
	var bare, last *mount
	defer func() {
		for _, m := range []*mount{bare, last} {
			if m != nil {
				m.close()
			}
		}
	}()
	for i := 0; i < spec.setups; i++ {
		var r *recorder
		if i == spec.setups-1 {
			r = rec
		}
		m, err := setup(spec, filepath.Join(dir, fmt.Sprintf("%s-%d.asg", spec.name, i)), r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, m.times)
		if bare != nil {
			bare.close()
		}
		bare, last = last, m
	}
	in, err := makeBatchInputs(spec, last.csr, partSeed(o))
	if err != nil {
		return nil, err
	}

	if !o.trace {
		l := &lane{m: last}
		if err := runLanes(ctx, spec, in, o.budget, l); err != nil {
			return nil, err
		}
		res := newResult(endToEnd)
		l.p.timings(setups).endToEnd(res)
		res.Attempted, res.Failed = l.p.attempted, l.p.failed
		res.Correct = l.p.failed == 0
		return res, nil
	}

	refLane, traced := &lane{m: bare}, &lane{m: last, rec: rec}
	if err := runLanes(ctx, spec, in, o.budget, refLane, traced); err != nil {
		return nil, err
	}
	ref, p := &refLane.p, &traced.p
	if err := runHybrid(ctx, spec, last, in, p); err != nil {
		return nil, err
	}
	res := newResult(perLayer)
	batchPerLayer(res, spec, last, ref, p, setups)
	switch spec.name {
	case "im-batch":
		probePQ(res)
		err = probeCore(res)
	case "sem-cached":
		if err = probeSEMCache(res, last.csr); err == nil {
			err = probeSSD(res)
		}
	case "sem-pipeline":
		if err = probeCodec(res, last.csr); err == nil {
			err = probeSSD(res)
		}
	}
	if err != nil {
		return nil, err
	}
	res.set("proc.peak_rss_mb", peakRSSMB())
	res.Attempted, res.Failed = ref.attempted+p.attempted, ref.failed+p.failed
	res.Correct = res.Failed == 0
	res.samples = p.sampleCounts()
	if o.traceOut != "" {
		if err := rec.writeTo(o.traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runServe(ctx context.Context, spec serveSpec, o options, dir string) (res *result, err error) {
	var setups []setupTimes
	var last *service
	var g *graph.CSR[uint32]
	// The server in use is stopped on every return path; a failure to stop
	// it is an error of the run unless an earlier error is being reported.
	stopLast := func() {
		if last == nil {
			return
		}
		if serr := last.stop(); serr != nil && err == nil {
			res, err = nil, fmt.Errorf("stop server: %w", serr)
		}
		last = nil
	}
	defer stopLast()
	for i := 0; i < spec.setups; i++ {
		if stopLast(); err != nil {
			return nil, err
		}
		if last, g, err = startService(spec, filepath.Join(dir, fmt.Sprintf("serve-open-%d.asg", i))); err != nil {
			return nil, err
		}
		setups = append(setups, last.times)
	}
	in, err := makeServeInputs(spec, g, partSeed(o), o.budget, o.trace)
	if err != nil {
		return nil, err
	}

	// Nothing is recorded while requests are in flight: the request spans of
	// a traced run are assembled from the outcomes afterwards, and the
	// counters it reads are ones the server keeps anyway. A traced run
	// therefore does the same work as an untraced one and needs no bare
	// reference; its trace.overhead_frac is 0 by construction.
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	p, err := runServePass(ctx, spec, last, in, rec)
	if err != nil {
		return nil, err
	}
	if o.trace {
		res = newResult(perLayer)
		servePerLayer(res, spec, in, p, setups)
		if err := probeServer(ctx, res, last); err != nil {
			return nil, err
		}
		res.set("proc.peak_rss_mb", peakRSSMB())
		if o.traceOut != "" {
			if err := rec.writeTo(o.traceOut); err != nil {
				return nil, err
			}
		}
		res.samples = p.sampleCounts()
	} else {
		res = newResult(endToEnd)
		p.timings(in, setups).endToEnd(res)
	}
	res.Attempted, res.Failed = p.tally()
	res.Correct = res.Failed == 0
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
