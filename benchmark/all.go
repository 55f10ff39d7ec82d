package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/ssd"
)

// hostBlock identifies where a result file was measured. Results from
// different hosts are not comparable, so -compare refuses to mix them; the
// commit is recorded but not compared, since comparing commits is the point.
type hostBlock struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPU          string `json:"cpu"`
	GoVersion    string `json:"go_version"`
	SSDTimeScale int    `json:"ssd_time_scale"`
	Commit       string `json:"commit"`
}

func thisHost() hostBlock {
	h := hostBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		GoVersion: runtime.Version(), SSDTimeScale: ssd.TimeScale, Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// runRecord is one workload's result in one invocation: the contract's
// metrics plus the failure share every workload reports.
type runRecord struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailFrac  float64                `json:"fail_frac"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultsFile is what -out writes: a set of untraced runs (the end-to-end
// view, one entry per -runs) and one traced run (the per-layer view) of every
// workload, with the host they were measured on.
type resultsFile struct {
	Host    hostBlock              `json:"host"`
	Seed    uint64                 `json:"seed"`
	Seconds int                    `json:"seconds"`
	Runs    []map[string]runRecord `json:"runs"`
	Traced  map[string]runRecord   `json:"traced"`
}

// runAll runs every workload in a child process of its own (a re-exec of this
// binary with -workload), so that heap and GC state of one workload cannot
// leak into the next, then repeats each once traced.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	file := resultsFile{Host: thisHost(), Seed: o.seed, Seconds: o.seconds, Traced: make(map[string]runRecord)}
	fmt.Fprintf(stdout, "host: %+v seed=%d seconds=%d\n", file.Host, o.seed, o.seconds)
	ok := true
	child := func(workload string, trace bool) (runRecord, error) {
		args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", "0"}
		if trace {
			args[len(args)-1] = "1"
			if o.traceOut != "" {
				args = append(args, "-trace-out", o.traceOut+"."+workload)
			}
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			if runErr != nil {
				return runRecord{}, runErr
			}
			return runRecord{}, fmt.Errorf("child printed no result: %w", err)
		}
		fmt.Fprintf(stdout, "\n== %s (trace %v): correct=%v attempted=%d failed=%d\n%s\n", workload, trace, res.Correct, res.Attempted, res.Failed,
			bytes.Join(lines[:len(lines)-1], []byte("\n")))
		if !res.Correct || runErr != nil {
			ok = false
		}
		return runRecord{res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Metrics}, nil
	}
	for r := 0; r < o.runs; r++ {
		set := make(map[string]runRecord)
		for _, w := range workloadNames {
			rec, err := child(w, false)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w, err)
				return 1
			}
			set[w] = rec
		}
		file.Runs = append(file.Runs, set)
	}
	for _, w := range workloadNames {
		rec, err := child(w, true)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s (traced): %v\n", w, err)
			return 1
		}
		file.Traced[w] = rec
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: write %s: %v\n", o.out, err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: at least one workload failed its correctness check")
		return 1
	}
	return 0
}
