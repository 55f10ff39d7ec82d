package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
)

// The smoke test runs every workload at -smoke size and asserts structure
// only: which metrics come out, that the oracle agrees, that counters add up,
// that a seed fixes the inputs. It asserts no timing value, so its verdict
// does not depend on the scheduler or the host.

func smokeOptions(workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 1, budget: 300 * time.Millisecond, trace: trace, smoke: true}
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res, err := runWorkload(context.Background(), smokeOptions(w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, m.Value)
				}
			}
			// The wire shape is exactly the contract's four keys.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Errorf("%s: result line has keys %v, want correct, attempted, failed, metrics", w, keys)
			}
		}
	}
}

// TestPooledRunMeasuresInSeveralProcesses drives an untraced run the way the
// driver does, through the built binary, and checks that the result pools the
// timings of every measuring process.
func TestPooledRunMeasuresInSeveralProcesses(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-workload", "sem-cached", "-seed", "7", "-seconds", "1", "-trace", "0", "-smoke")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is no result: %v\n%s", err, stdout.Bytes())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	// Two measuring processes at -smoke size, two set-ups each.
	if want := []byte("setups=4 "); !bytes.Contains(stdout.Bytes(), want) {
		t.Errorf("output does not report %q:\n%s", want, stdout.Bytes())
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("metric %s = %v %s", d.Name, m.Value, m.Unit)
		}
	}
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the metric tables in
// metrics.go from drifting apart.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s %s: better=%q", kind, d.Name, got[i].Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestOracleCatchesCorruptLabel is the oracle's self-test: a single wrong
// label, or two components merged, must not pass.
func TestOracleCatchesCorruptLabel(t *testing.T) {
	g, err := buildGraph(8, batchSpecs["im-batch"].params, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := uint32(0)
	for g.Degree(src) == 0 {
		src++
	}
	qs := []query{{kBFS, src}, {kSSSP, src}, {Kernel: kCC}}
	or, err := newOracle(g, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:2] {
		want := or.answer(q)
		good := append([]graph.Dist(nil), want.labels...)
		if !want.matches(good, nil) {
			t.Fatalf("%s: baseline does not match itself", kernelNames[q.Kernel])
		}
		bad := append([]graph.Dist(nil), good...)
		bad[len(bad)/2]++
		if want.matches(bad, nil) {
			t.Errorf("%s: a corrupted label was accepted", kernelNames[q.Kernel])
		}
	}
	cc := or.answer(qs[2])
	relabelled := make([]uint32, len(cc.ids))
	for v, id := range cc.ids {
		relabelled[v] = id + 1000 // same partition, different names
	}
	if !cc.matches(nil, relabelled) {
		t.Error("cc: an equal partition under other ids was rejected")
	}
	if cc.components < 2 {
		t.Skip("graph has a single component; cannot merge two")
	}
	merged := append([]uint32(nil), cc.ids...)
	first := merged[0]
	for v, id := range merged {
		if id != first {
			merged[v] = first // move one vertex into another component
			break
		}
	}
	if cc.matches(nil, merged) {
		t.Error("cc: a vertex moved to another component was accepted")
	}
}

// TestDecoratorCountsEqualDeviceCounters checks that the tracing decorator
// directly above the device sees exactly the reads the device counts, on both
// SEM read paths.
func TestDecoratorCountsEqualDeviceCounters(t *testing.T) {
	for _, name := range []string{"sem-cached", "sem-pipeline"} {
		spec := batchSpecs[name].smokeSized()
		m, err := setup(spec, filepath.Join(t.TempDir(), name+".asg"), newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		in, err := makeBatchInputs(spec, m.csr, 7)
		if err != nil {
			t.Fatal(err)
		}
		l := &lane{m: m, rec: m.below.rec}
		if err := runLanes(context.Background(), spec, in, 100*time.Millisecond, l); err != nil {
			t.Fatal(err)
		}
		m.close()
		dev := l.p.after.dev
		seam := l.p.after.below.minus(l.p.before.below)
		if reads := dev.Reads - l.p.before.dev.Reads; seam.calls != reads || reads == 0 {
			t.Errorf("%s: decorator saw %d reads, device counted %d", name, seam.calls, reads)
		}
		if bytes := dev.BytesRead - l.p.before.dev.BytesRead; seam.bytes != bytes {
			t.Errorf("%s: decorator saw %d bytes, device counted %d", name, seam.bytes, bytes)
		}
		if l.p.failed != 0 {
			t.Errorf("%s: %d of %d queries failed the oracle", name, l.p.failed, l.p.attempted)
		}
	}
}

// TestSeedFixesInputs checks that the same seed yields byte-identical query
// lists and schedules, and that another seed yields different ones.
func TestSeedFixesInputs(t *testing.T) {
	encode := func(seed uint64) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, name := range workloadNames[:3] {
			spec := batchSpecs[name].smokeSized()
			g, err := buildGraph(spec.scale, spec.params, graphSeed)
			if err != nil {
				t.Fatal(err)
			}
			in, err := makeBatchInputs(spec, g, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(in.queries[:64]); err != nil {
				t.Fatal(err)
			}
		}
		spec := serveOpen.smokeSized()
		g, err := buildGraph(spec.scale, batchSpecs["im-batch"].params, graphSeed)
		if err != nil {
			t.Fatal(err)
		}
		in, err := makeServeInputs(spec, g, seed, time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode([]any{in.warmup, in.base, in.over}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b, c := encode(11), encode(11), encode(12)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical inputs")
	}
}

// TestCompareJudgesAgainstBound covers the differ's three verdicts.
func TestCompareJudgesAgainstBound(t *testing.T) {
	lower := specMetric{Name: "x_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		b    []float64
		m    specMetric
		want string
	}{
		{"within bound", []float64{104, 105, 103, 104, 106}, lower, "ok"},
		{"beyond bound", []float64{120, 121, 119, 120, 122}, lower, "REGRESSION"},
		{"noisy", []float64{80, 140, 100, 160, 90}, lower, "unresolved"},
		{"higher is better, dropped", []float64{80, 81, 79, 80, 82}, specMetric{Better: "higher", Bound: 0.10}, "REGRESSION"},
		{"higher is better, rose", []float64{120, 121, 119, 120, 122}, specMetric{Better: "higher", Bound: 0.10}, "ok"},
	} {
		if got := judge(steady, tc.b, tc.m).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// Python's statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
