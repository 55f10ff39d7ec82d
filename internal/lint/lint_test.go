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
// per test binary; every test shares the result.
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

// TestHotpath asserts the check fired at precisely the seeded positions:
// every violation is caught and nothing else (the clean counterparts in the
// same file stay quiet).
func TestHotpath(t *testing.T) {
	want := map[string]string{
		"hot.go:7":  "call to time.Now",
		"hot.go:8":  "map allocation (make)",
		"hot.go:9":  "map allocation (composite literal)",
		"hot.go:39": "map allocation (composite literal) in hotpath function hotPush",
	}
	got := make(map[string][]string)
	for _, d := range Hotpath(loadFixture(t)) {
		key := filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}
	for key, substr := range want {
		msgs, ok := got[key]
		if !ok {
			t.Errorf("expected a diagnostic at %s, got none", key)
			continue
		}
		found := false
		for _, m := range msgs {
			if strings.Contains(m, substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("diagnostic at %s = %q, want substring %q", key, msgs, substr)
		}
	}
	for key, msgs := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected diagnostic at %s: %q", key, msgs)
		}
	}
}

// TestDiagnosticFormat pins the contract the CI gate and editors rely on:
// one diagnostic per line, formatted file:line: hotpath: message.
func TestDiagnosticFormat(t *testing.T) {
	diags := Hotpath(loadFixture(t))
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	for _, d := range diags {
		s := d.String()
		parts := strings.SplitN(s, ": ", 3)
		if len(parts) != 3 || parts[1] != "hotpath" {
			t.Fatalf("diagnostic %q does not match file:line: hotpath: message", s)
		}
		if !strings.Contains(parts[0], ".go:") {
			t.Errorf("diagnostic %q position %q lacks file:line", s, parts[0])
		}
	}
	// Hotpath's output is sorted by position for stable CI logs.
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", a.String(), b.String())
		}
	}
}

// TestGoldenFixtureFindings diffs the check's output over the fixture module
// against the checked-in golden file, so any regression in coverage, message
// wording, or output ordering fails loudly. CI asserts the same golden
// through cmd/lint run inside the fixture directory.
func TestGoldenFixtureFindings(t *testing.T) {
	var b strings.Builder
	for _, d := range Hotpath(loadFixture(t)) {
		d.Pos.Filename = filepath.Base(d.Pos.Filename)
		b.WriteString(d.String() + "\n")
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

// TestRepositoryIsClean runs the check over the repository's own packages and
// fails on any finding, so `go test ./...` enforces what CI's
// `go run ./cmd/lint ./...` step does.
func TestRepositoryIsClean(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading the repository: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("the repository produced no packages")
	}
	for _, d := range Hotpath(pkgs) {
		t.Error(d.String())
	}
}
