package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mount/mounttest"
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
		{"valid async bfs", func(o *options) { o.workers = 512 }, true},
		{"valid bsp cc", func(o *options) { o.algo, o.engine, o.ranks = "cc", "bsp", 4 }, true},
		{"valid sem profile", func(o *options) { o.algo, o.mount.SEM, o.profile = "sssp", true, "Intel" }, true},
		{"missing path", func(o *options) { o.path = "" }, false},
		{"nonexistent file", func(o *options) { o.path = g + ".nope" }, false},
		{"unknown algo", func(o *options) { o.algo = "pagerank" }, false},
		{"unknown engine", func(o *options) { o.engine = "quantum" }, false},
		{"sssp has no bsp engine", func(o *options) { o.algo, o.engine = "sssp", "bsp" }, false},
		{"negative workers", func(o *options) { o.workers = -1 }, false},
		{"zero workers", func(o *options) { o.workers = 0 }, false},
		{"bsp needs ranks", func(o *options) { o.engine, o.ranks = "bsp", 0 }, false},
		{"unknown sem profile", func(o *options) { o.mount.SEM, o.profile = true, "FloppyDisk" }, false},
		{"negative shards", func(o *options) { o.mount.Shards = -1 }, false},
		{"shard files present", func(o *options) { o.path, o.mount.Shards = sharded, 2 }, true},
		{"shard files auto-detected", func(o *options) { o.path = sharded }, true},
		{"shard count exceeds files", func(o *options) { o.path, o.mount.Shards = sharded, 3 }, false},
		{"shards of a plain file", func(o *options) { o.mount.Shards = 2 }, false},
		{"hybrid async bfs", func(o *options) { o.mount.Direction = core.DirectionHybrid }, true},
		{"bottomup async bfs", func(o *options) { o.mount.Direction = core.DirectionBottomUp }, true},
		{"hybrid needs bfs", func(o *options) { o.algo, o.mount.Direction = "cc", core.DirectionHybrid }, false},
		{"hybrid needs async", func(o *options) { o.engine, o.mount.Direction = "serial", core.DirectionHybrid }, false},
		{"topdown on any engine", func(o *options) { o.engine = "serial" }, true},
	}
	for _, tc := range cases {
		o := options{path: g, algo: "bfs", engine: "async", workers: 8, ranks: 16}
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

// TestUsageErrorsExit2 re-executes the test binary as traverse itself (the
// child sees TRAVERSE_ARGS and runs main) and checks that a bad flag is a
// usage error caught before any file is opened: the message on stderr, exit
// status 2. The engine/mount rows are mounttest.BadFlags, the table cmd/bench
// and cmd/serve run too, so all three binaries are held to one message each.
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
	}, mounttest.BadFlags...)
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "TRAVERSE_ARGS=-graph "+g+" "+tc.Args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("traverse %s: %v, want exit status 2\n%s", tc.Args, err, out)
		}
		if !strings.Contains(string(out), tc.Want) {
			t.Errorf("traverse %s: output %q, want it to contain %q", tc.Args, out, tc.Want)
		}
	}
}
