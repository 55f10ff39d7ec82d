package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/mount/mounttest"
)

// TestUsageErrorsExit2 re-executes the test binary as bench itself (the child
// sees BENCH_ARGS and runs main) and checks that a bad flag is a usage error
// caught before any experiment starts: the message on stderr, exit status 2.
// The engine/mount rows are mounttest.BadFlags, the table cmd/traverse and
// cmd/serve run too.
func TestUsageErrorsExit2(t *testing.T) {
	if args, ok := os.LookupEnv("BENCH_ARGS"); ok {
		os.Args = append([]string{"bench"}, strings.Fields(args)...)
		main()
		return
	}
	cases := append([]mounttest.BadFlag{
		{Args: "-shards -1", Want: "bench: -shards must be >= 0 (0 = auto-detect), got -1"},
		{Args: "-scales 12,x", Want: `bench: -scales: bad integer "x"`},
		{Args: "-exp table9", Want: `bench: unknown -exp "table9"`},
	}, mounttest.BadFlags...)
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "BENCH_ARGS=-quiet "+tc.Args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("bench %s: %v, want exit status 2\n%s", tc.Args, err, out)
		}
		if !strings.Contains(string(out), tc.Want) {
			t.Errorf("bench %s: output %q, want it to contain %q", tc.Args, out, tc.Want)
		}
	}
}
