package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mount"
	"repro/internal/mount/mounttest"
	"repro/internal/sem"
)

func TestValidate(t *testing.T) {
	g := filepath.Join(t.TempDir(), "g.asg")
	if err := os.WriteFile(g, []byte("stub"), 0o644); err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(t.TempDir(), "s.asg")
	for k := 0; k < 2; k++ {
		if err := os.WriteFile(sharded+".shard"+string(rune('0'+k)), []byte("stub"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		set  func(o *options)
		ok   bool
	}{
		{"valid bfs", func(o *options) { o.workers = 512 }, true},
		{"valid cc", func(o *options) { o.algo = "cc" }, true},
		{"valid sem profile", func(o *options) { o.algo, o.mount.SEM, o.profile = "sssp", true, "Intel" }, true},
		{"missing path", func(o *options) { o.path = "" }, false},
		{"nonexistent file", func(o *options) { o.path = g + ".nope" }, false},
		{"unknown algo", func(o *options) { o.algo = "pagerank" }, false},
		{"negative workers", func(o *options) { o.workers = -1 }, false},
		{"zero workers", func(o *options) { o.workers = 0 }, false},
		{"unknown sem profile", func(o *options) { o.mount.SEM, o.profile = true, "FloppyDisk" }, false},
		{"nocache without sem", func(o *options) { o.mount.NoCache = true }, false},
		{"profile without sem", func(o *options) { o.profile, o.profileSet = "Intel", true }, false},
		{"nocache and profile with sem", func(o *options) { o.mount.SEM, o.mount.NoCache, o.profile, o.profileSet = true, true, "Intel", true }, true},
		{"negative shards", func(o *options) { o.mount.Shards = -1 }, false},
		{"shard files present", func(o *options) { o.path, o.mount.Shards = sharded, 2 }, true},
		{"shard files auto-detected", func(o *options) { o.path = sharded }, true},
		{"shard count exceeds files", func(o *options) { o.path, o.mount.Shards = sharded, 3 }, false},
		{"shards of a plain file", func(o *options) { o.mount.Shards = 2 }, false},
	}
	for _, tc := range cases {
		o := options{path: g, algo: "bfs", workers: 8}
		tc.set(&o)
		err := validate(&o)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// TestFlagLedger pins the command's flag set: the comparator engines are
// reached through cmd/bench only, the sort key is the mount's constant and
// BFS chooses its own driver, so a new flag here — or the return of -engine,
// -ranks, -autosrc, -semisort or -direction — is a conscious edit of this
// list.
func TestFlagLedger(t *testing.T) {
	fs := flag.NewFlagSet("traverse", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bind(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	const want = "algo check graph nocache profile sem shards src workers"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("traverse registers %q, want exactly %q", got, want)
	}
}

// TestSourceRule: the source is -src when it was given on the command line,
// 0 included, and the max-degree vertex otherwise.
func TestSourceRule(t *testing.T) {
	// Vertex 2 has the highest out-degree.
	g, err := graph.FromEdges[uint32](4, false, true, []graph.Edge[uint32]{{Src: 0, Dst: 1}, {Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.asg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sem.Write(f, g, sem.WriteConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, want string }{
		{"-src 0", "source: 0 (-src)"},
		{"", "source: 2 (max degree 3)"},
		{"-src 3", "source: 3 (-src)"},
	} {
		out, err := traverse("-graph " + path + " -workers 2 " + tc.args)
		if err != nil {
			t.Errorf("traverse %s: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("traverse %s: output %q, want it to contain %q", tc.args, out, tc.want)
		}
	}
	if out, err := traverse("-graph " + path + " -src 4"); exitCode(err) != 1 || !strings.Contains(out, "-src 4 out of range for 4 vertices") {
		t.Errorf("traverse -src 4: %v, want exit status 1 and an out-of-range message\n%s", err, out)
	}
}

// TestSaysWhichBFSRan: with no flag to read, the `bfs:` line names the driver
// BFS chose and the facts it chose from, on every store; the phase counters
// follow whenever the driver ran.
func TestSaysWhichBFSRan(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, symmetrize bool) string {
		// A 16-clique (15 edges a vertex: dense enough for the driver on a
		// device), or the directed half of it.
		b := graph.NewBuilder[uint32](16, false)
		for u := uint32(0); u < 16; u++ {
			for v := u + 1; v < 16; v++ {
				b.AddEdge(u, v, 1)
			}
		}
		if symmetrize {
			b.Symmetrize()
		}
		g, err := b.Build(true)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := mount.WriteFiles(path, g, mount.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	und, directed := write("und.asg", true), write("dir.asg", false)
	for _, store := range []struct{ flags, name string }{{"", "im"}, {"-sem", "cached"}, {"-sem -nocache", "raw"}} {
		out, err := traverse("-graph " + und + " -workers 4 -check " + store.flags)
		want := "bfs: driver=direction-switching (in-edges=symmetric, edges/vertex=15.0, store=" + store.name + ")"
		if err != nil || !strings.Contains(out, want) || !strings.Contains(out, "direction: alpha=") || !strings.Contains(out, "check: levels match") {
			t.Errorf("undirected %s: %v, want %q, a direction: line and a passing check\n%s", store.name, err, want, out)
		}
		out, err = traverse("-graph " + directed + " -workers 4 -check " + store.flags)
		want = "bfs: driver=asynchronous (in-edges=none, edges/vertex=7.5, store=" + store.name + ")"
		if err != nil || !strings.Contains(out, want) || strings.Contains(out, "direction: alpha=") || !strings.Contains(out, "check: levels match") {
			t.Errorf("directed %s: %v, want %q, no direction: line and a passing check\n%s", store.name, err, want, out)
		}
	}
	if out, err := traverse("-graph " + und + " -algo sssp"); err != nil || strings.Contains(out, "bfs:") {
		t.Errorf("sssp printed a bfs: line: %v\n%s", err, out)
	}
}

// traverse re-executes the test binary as traverse itself: the child enters
// TestUsageErrorsExit2, sees TRAVERSE_ARGS and runs main.
func traverse(args string) (string, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
	cmd.Env = append(os.Environ(), "TRAVERSE_ARGS="+args)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func exitCode(err error) int {
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	return 0
}

// TestUsageErrorsExit2 checks that a bad flag is a usage error caught before
// any file is opened: the message on stderr, exit status 2. The engine/mount
// rows are mounttest.BadFlags, the table cmd/bench and cmd/serve run too, so
// all three binaries are held to one message each.
func TestUsageErrorsExit2(t *testing.T) {
	if args, ok := os.LookupEnv("TRAVERSE_ARGS"); ok {
		os.Args = append([]string{"traverse"}, strings.Fields(args)...)
		main()
		return
	}
	g := filepath.Join(t.TempDir(), "g.asg")
	if err := os.WriteFile(g, []byte("stub"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := append([]mounttest.BadFlag{
		{Args: "-shards -1", Want: "traverse: -shards must be >= 0 (0 = auto-detect), got -1"},
		{Args: "-algo pagerank", Want: `traverse: unknown -algo "pagerank" (want bfs, sssp, or cc)`},
		{Args: "-nocache", Want: "traverse: -nocache and -profile describe the flash device of a -sem mount"},
		{Args: "-profile Nope", Want: "traverse: -nocache and -profile describe the flash device of a -sem mount"},
		{Args: "-ranks 4", Want: "flag provided but not defined: -ranks"},
		{Args: "-autosrc=false", Want: "flag provided but not defined: -autosrc"},
	}, mounttest.BadFlags...)
	for _, tc := range cases {
		out, err := traverse("-graph " + g + " " + tc.Args)
		if exitCode(err) != 2 {
			t.Errorf("traverse %s: %v, want exit status 2\n%s", tc.Args, err, out)
		}
		if !strings.Contains(out, tc.Want) {
			t.Errorf("traverse %s: output %q, want it to contain %q", tc.Args, out, tc.Want)
		}
	}
}
