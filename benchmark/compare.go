package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchmarkSpec is BENCHMARK.json: the contract the driver and -compare read.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory or
// its parent when path is empty (the benchmark is run from the repository
// root or from its own directory).
func loadSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var data []byte
	var err error
	for _, c := range candidates {
		if data, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: holds no runs", path)
	}
	return &f, nil
}

// quartiles returns the three cut points Python's statistics.quantiles(xs,
// n=4) gives (the exclusive method), which is how the spread of a set of runs
// is defined. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median; 0 for a single run, which has no spread to speak of.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// compareFiles prints, for every (workload, end-to-end metric), how set b
// moved against set a, judged by the metric's bound in BENCHMARK.json. It
// returns 1 when any pair regressed, 2 when the sets are not comparable.
func compareFiles(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	ha, hb := a.Host, b.Host
	ha.Commit, hb.Commit = "", ""
	if ha != hb || a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(stderr, "benchmark: refusing to compare: host, seed or run length differ\n  %s: %+v seed=%d seconds=%d\n  %s: %+v seed=%d seconds=%d\n",
			pathA, a.Host, a.Seed, a.Seconds, pathB, b.Host, b.Seed, b.Seconds)
		return 2
	}

	fmt.Fprintf(stdout, "%-13s %-13s %14s %14s %8s %7s %7s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "bound", "verdict")
	regressed := false
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, w, m.Name), values(b, w, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, m)
			if v.verdict == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-13s %-13s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w, m.Name, v.medA, v.medB, 100*v.worse, 100*v.spreadA, 100*v.spreadB, 100*m.Bound, v.verdict)
		}
		fa, fb := median(failFracs(a, w)), median(failFracs(b, w))
		verdict := "ok"
		if fb > fa {
			verdict, regressed = "REGRESSION", true
		}
		fmt.Fprintf(stdout, "%-13s %-13s %14.6g %14.6g %40s %s\n", w, "fail_frac", fa, fb, "", verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

func values(f *resultsFile, workload, metric string) []float64 {
	var xs []float64
	for _, run := range f.Runs {
		if mv, ok := run[workload].Metrics[metric]; ok {
			xs = append(xs, mv.Value)
		}
	}
	return xs
}

func failFracs(f *resultsFile, workload string) []float64 {
	var xs []float64
	for _, run := range f.Runs {
		xs = append(xs, run[workload].FailFrac)
	}
	return xs
}

type verdict struct {
	medA, medB, worse, spreadA, spreadB float64
	verdict                             string
}

// judge applies the rule of the choosing-metrics guide: b regressed when its
// median is worse than a's by more than the bound; where either set's spread
// is wider than the bound the pair is unresolved, unless every run of b reads
// better than every run of a.
func judge(xa, xb []float64, m specMetric) verdict {
	v := verdict{medA: median(xa), medB: median(xb), spreadA: spread(xa), spreadB: spread(xb)}
	higher := m.Better == "higher"
	v.worse = ratio(v.medB-v.medA, v.medA)
	if higher {
		v.worse = -v.worse
	}
	switch {
	case max(v.spreadA, v.spreadB) > m.Bound:
		v.verdict = "unresolved"
		if allBetter(xa, xb, higher) {
			v.verdict = "ok (every run better)"
		}
	case v.worse > m.Bound:
		v.verdict = "REGRESSION"
	default:
		v.verdict = "ok"
	}
	return v
}

func allBetter(xa, xb []float64, higher bool) bool {
	if higher {
		return slices.Min(xb) > slices.Max(xa)
	}
	return slices.Max(xb) < slices.Min(xa)
}
