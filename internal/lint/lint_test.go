package lint

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	fixtureOnce sync.Once
	fixturePkgs []*Package
	fixtureErr  error
)

// loadFixture type-checks the seeded-violation module under testdata once
// per test binary; every analyzer test shares the result.
func loadFixture(t *testing.T) []*Package {
	t.Helper()
	fixtureOnce.Do(func() {
		fixturePkgs, fixtureErr = Load("testdata/fixture", "./...")
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	if len(fixturePkgs) == 0 {
		t.Fatal("fixture module produced no packages")
	}
	return fixturePkgs
}

// runOn runs one analyzer over the fixture and returns its diagnostics keyed
// as "file.go:line".
func runOn(t *testing.T, a *Analyzer) map[string][]string {
	t.Helper()
	got := make(map[string][]string)
	for _, d := range RunAll(loadFixture(t), []*Analyzer{a}) {
		key := filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}
	return got
}

// expectExactly asserts the analyzer fired at precisely the wanted
// positions: every seeded violation is caught and nothing else (the clean
// counterparts in the same files stay quiet).
func expectExactly(t *testing.T, a *Analyzer, want map[string]string) {
	t.Helper()
	got := runOn(t, a)
	for key, substr := range want {
		msgs, ok := got[key]
		if !ok {
			t.Errorf("%s: expected a diagnostic at %s, got none", a.Name, key)
			continue
		}
		found := false
		for _, m := range msgs {
			if strings.Contains(m, substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: diagnostic at %s = %q, want substring %q", a.Name, key, msgs, substr)
		}
	}
	for key, msgs := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected diagnostic at %s: %q", a.Name, key, msgs)
		}
	}
}

func TestHotpath(t *testing.T) {
	expectExactly(t, Hotpath, map[string]string{
		"hot.go:10": "call to fmt.Sprintf",
		"hot.go:11": "call to time.Now",
		"hot.go:12": "map allocation (make)",
		"hot.go:13": "map allocation (composite literal)",
		"hot.go:14": "closure allocation",
		"hot.go:47": "append growth in a loop without a capacity hint",
		"hot.go:94": "slice allocation (make) inside a loop without a cap() growth guard",
	})
}

func TestDroppedErr(t *testing.T) {
	expectExactly(t, DroppedErr, map[string]string{
		"dropped.go:11":      "s.Close error is dropped",
		"dropped.go:12":      "s.ReadAt error is blanked",
		"dropped.go:13":      "s.Write error is dropped",
		"droppedwrite.go:17": "s.Close error is discarded by defer on a write path",
		"droppedwrite.go:26": "s.Encode error is dropped",
		"droppedwrite.go:31": "s.WriteString error is dropped",
	})
}

func TestLockOrder(t *testing.T) {
	expectExactly(t, LockOrder, map[string]string{
		// Direct AB/BA reversal: lockAB vs lockBA.
		"lockorder.go:16": "lock-order cycle: fixture.orderA.mu -> fixture.orderB.mu",
		// The same cycle closed through callees' may-acquire summaries.
		"lockorder.go:45": "via fixture.lockDAlone",
	})
}

func TestBlockWhileLocked(t *testing.T) {
	expectExactly(t, BlockWhileLocked, map[string]string{
		"blocklocked.go:17": "channel receive while holding fixture.relay.mu",
		"blocklocked.go:23": "sync.WaitGroup.Wait while holding fixture.relay.mu",
		"blocklocked.go:38": "call to fixture.relay.drain may block",
		"blocklocked.go:52": "select without default while holding fixture.board.rw",
	})
}

func TestConfigCheck(t *testing.T) {
	expectExactly(t, ConfigCheck, map[string]string{
		"config.go:15": "Config.Depth is never referenced",
		"config.go:28": "OrphanConfig has no validate/normalize function",
		"config.go:60": "ShardConfig.Replicas is never referenced",
		"config.go:79": "PolicyConfig.Trace is never referenced",
	})
}

// TestDiagnosticFormat pins the contract the CI gate and editors rely on:
// one diagnostic per line, formatted file:line: analyzer: message.
func TestDiagnosticFormat(t *testing.T) {
	diags := RunAll(loadFixture(t), Analyzers())
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	for _, d := range diags {
		s := d.String()
		parts := strings.SplitN(s, ": ", 3)
		if len(parts) != 3 {
			t.Fatalf("diagnostic %q does not match file:line: analyzer: message", s)
		}
		if !strings.Contains(parts[0], ".go:") {
			t.Errorf("diagnostic %q position %q lacks file:line", s, parts[0])
		}
	}
	// RunAll output is sorted by position for stable CI logs.
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", a.String(), b.String())
		}
	}
}

// TestGoldenFixtureFindings diffs the full suite's output over the fixture
// module against the checked-in golden file, so any regression in analyzer
// coverage, message wording, or output ordering fails loudly. CI asserts the
// same golden through cmd/lint run inside the fixture directory.
func TestGoldenFixtureFindings(t *testing.T) {
	var b strings.Builder
	for _, d := range RunAll(loadFixture(t), Analyzers()) {
		b.WriteString(filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line) +
			": " + d.Analyzer + ": " + d.Message + "\n")
	}
	got := b.String()
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "expected.txt"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("golden mismatch at line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
	t.Fatalf("fixture findings diverge from testdata/expected.txt (%d got, %d want lines); regenerate it if the change is intentional", len(gotLines)-1, len(wantLines)-1)
}
