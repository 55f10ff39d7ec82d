package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
)

// tiny returns options small enough that the full suite runs in seconds.
func tiny() Options {
	o := Defaults()
	o.Scales = []int{8}
	o.SEMScales = []int{8}
	o.Threads = []int{1, 4}
	o.SyncWorkers = 4
	o.SEMThreads = 16
	o.Ranks = 4
	o.MemModel = false
	o.SEMReps = 1
	o.WebScale = 8
	o.Fig1Threads = []int{1, 4}
	o.Fig1Duration = 50 * time.Millisecond
	return o
}

func checkTable(t *testing.T, tbl *Table, wantRows int) {
	t.Helper()
	if tbl.Title == "" {
		t.Fatal("table has no title")
	}
	if len(tbl.Rows) != wantRows {
		t.Fatalf("%s: rows = %d, want %d", tbl.Title, len(tbl.Rows), wantRows)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Cols) {
			t.Fatalf("%s: row %d has %d cells, want %d", tbl.Title, i, len(row), len(tbl.Cols))
		}
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, tbl *Table, row int, col string) float64 {
	t.Helper()
	for c, name := range tbl.Cols {
		if name == col {
			v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][c], "%"), 64)
			if err != nil {
				t.Fatalf("%s[%d,%s] = %q: %v", tbl.Title, row, col, tbl.Rows[row][c], err)
			}
			return v
		}
	}
	t.Fatalf("%s: no column %q", tbl.Title, col)
	return 0
}

// competitors asserts that tbl carries a timing column for every competitor
// named and a parseable time in every row of it. Each comparator engine is
// reached through exactly one table; this is what keeps it from losing that
// reader unnoticed.
func competitors(t *testing.T, tbl *Table, o Options, cols ...string) {
	t.Helper()
	for _, th := range o.Threads {
		cols = append(cols, fmt.Sprintf("async%d(s)", th))
	}
	for _, col := range cols {
		for i := range tbl.Rows {
			cell(t, tbl, i, col)
		}
	}
}

func TestFigure1ShapeAndRows(t *testing.T) {
	o := tiny()
	tbl, err := Figure1(o)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, len(o.Fig1Threads))
	// More threads must give more IOPS for every device at these counts
	// (both below saturation).
	for _, dev := range []string{"FusionIO", "Intel", "Corsair"} {
		if cell(t, tbl, 1, dev) <= cell(t, tbl, 0, dev) {
			t.Fatalf("%s IOPS did not rise with threads", dev)
		}
	}
	// Device ordering at a fixed thread count.
	if !(cell(t, tbl, 1, "FusionIO") > cell(t, tbl, 1, "Intel") &&
		cell(t, tbl, 1, "Intel") > cell(t, tbl, 1, "Corsair")) {
		t.Fatal("device IOPS ordering violated")
	}
}

func TestTable1Rows(t *testing.T) {
	o := tiny()
	tbl, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2*len(o.Scales)) // two RMAT variants per scale
	// serial, level-synchronous, vertex-scan, BSP, and async per thread count.
	competitors(t, tbl, o, "BGL(s)", "MTGL(s)", "SNAP(s)", "PBGL(s)")
	// RMAT-A reaches most of the graph; RMAT-B less (paper Table I).
	if cell(t, tbl, 0, "%vis") <= cell(t, tbl, 1, "%vis") {
		t.Fatalf("expected %%vis(RMAT-A) > %%vis(RMAT-B): %v vs %v",
			cell(t, tbl, 0, "%vis"), cell(t, tbl, 1, "%vis"))
	}
}

func TestTable2Rows(t *testing.T) {
	o := tiny()
	tbl, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2*2*len(o.Scales)) // variants x {UW, LUW} x scales
}

func TestTable3Rows(t *testing.T) {
	o := tiny()
	tbl, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2*len(o.Scales)+2) // RMAT rows + two web rows
	// serial, label propagation, BSP, and async per thread count.
	competitors(t, tbl, o, "BGL(s)", "MTGL(s)", "PBGL(s)")
	// Every row reports at least one component.
	for i := range tbl.Rows {
		if cell(t, tbl, i, "#CCs") < 1 {
			t.Fatalf("row %d: no components", i)
		}
	}
}

func TestTable4Rows(t *testing.T) {
	o := tiny()
	tbl, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2*len(o.SEMScales))
	for i := range tbl.Rows {
		if cell(t, tbl, i, "devReads") <= 0 {
			t.Fatalf("row %d: no device reads recorded", i)
		}
	}
}

func TestTable5Rows(t *testing.T) {
	o := tiny()
	tbl, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 2*len(o.SEMScales)+1) // RMAT rows + one web row
}

func TestAblationDirection(t *testing.T) {
	o := tiny()
	tbl, err := AblationDirection(o)
	if err != nil {
		t.Fatal(err)
	}
	// Two RMAT variants get all three directions; chain and grid only the
	// top-down/hybrid guard pair.
	checkTable(t, tbl, 2*3+2*2)
	for i, row := range tbl.Rows {
		name, dir := row[0], row[1]
		rmat := strings.HasPrefix(name, "RMAT")
		switch {
		case dir == "hybrid" && rmat:
			// Dense scale-free frontiers must cross the α threshold.
			if cell(t, tbl, i, "bu") < 1 || cell(t, tbl, i, "switch") < 1 {
				t.Fatalf("%s hybrid: no bottom-up phases (row %v)", name, row)
			}
			if cell(t, tbl, i, "scanSpans") < 1 {
				t.Fatalf("%s hybrid: bottom-up ran without sequential scan spans", name)
			}
		case dir == "hybrid":
			// One-vertex frontiers on chain/grid must never leave top-down.
			if cell(t, tbl, i, "bu") != 0 || cell(t, tbl, i, "switch") != 0 {
				t.Fatalf("%s hybrid left top-down (row %v)", name, row)
			}
		case dir == "bottomup":
			if cell(t, tbl, i, "bu") < 1 {
				t.Fatalf("%s forced bottom-up recorded no bottom-up phases", name)
			}
		case dir == "topdown":
			if cell(t, tbl, i, "bu") != 0 {
				t.Fatalf("%s top-down recorded bottom-up phases", name)
			}
		}
	}
}

func TestFigure2AndAblations(t *testing.T) {
	o := tiny()
	tbl, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tbl, 3)
	tables, err := Ablations(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d ablation tables, want 4", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty", tbl.Title)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Note: "n", Cols: []string{"a", "bb"}}
	tbl.Add("1")            // short row padded
	tbl.Add("22", "3", "x") // long row truncated
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "a   bb") {
		t.Fatalf("render output:\n%s", out)
	}
	if strings.Contains(out, "x") {
		t.Fatal("extra cell not dropped")
	}
}

func TestSecondsAndRatio(t *testing.T) {
	if Seconds(1500*time.Millisecond) != "1.500" {
		t.Fatalf("Seconds = %s", Seconds(1500*time.Millisecond))
	}
	if Ratio(2*time.Second, time.Second) != "2.00" {
		t.Fatalf("Ratio = %s", Ratio(2*time.Second, time.Second))
	}
	if Ratio(time.Second, 0) != "n/a" {
		t.Fatal("Ratio with zero denominator")
	}
}

func TestSlowAdjChargesLatency(t *testing.T) {
	g, err := gen.Chain[uint32](1000)
	if err != nil {
		t.Fatal(err)
	}
	slow := &SlowAdj[uint32]{Inner: g, PerEdge: 50 * time.Microsecond}
	scratch := &graph.Scratch[uint32]{}
	start := time.Now()
	for v := uint32(0); v < 1000; v++ {
		if _, _, err := slow.Neighbors(v, scratch); err != nil {
			t.Fatal(err)
		}
	}
	// 999 edges x 50µs ≈ 50ms minimum.
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("SlowAdj charged %v, want >= ~50ms", elapsed)
	}
	if slow.NumVertices() != 1000 || slow.Degree(0) != 1 {
		t.Fatal("SlowAdj does not delegate metadata")
	}
}

func TestMemModelSlowsRuns(t *testing.T) {
	// With the DRAM model on, the serial baseline must charge ~1µs per
	// edge; confirm the wrapped run is measurably slower than the raw one.
	o := tiny()
	g, err := gen.RMAT[uint32](10, 8, gen.RMATA, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := timeIt(func() error {
		_, err := baselineBFS(g)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	o.MemModel = true
	slow, err := timeIt(func() error {
		_, err := baselineBFS(o.wrap(g))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow < 4*raw {
		t.Fatalf("mem model barely slowed the run: raw=%v slow=%v", raw, slow)
	}
}

func baselineBFS(adj graph.Adjacency[uint32]) ([]graph.Dist, error) {
	return baseline.SerialBFS(adj, 0)
}

func TestAblationWriteAsymmetryShape(t *testing.T) {
	o := tiny()
	tbl, err := AblationWriteAsymmetry(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The ratio is the device model's, not the host's, however busy the
	// machine is: the profiles' 2.5-3x latency ratios, pulled toward 1 by the
	// bandwidth term both directions pay (2.4-2.8 on full 64 KiB transfers).
	for i := range tbl.Rows {
		if r := cell(t, tbl, i, "write/read"); r < 2.3 || r > 3 {
			t.Fatalf("row %d: modelled write/read %.2f outside [2.3, 3]: %v", i, r, tbl.Rows[i])
		}
	}
}
