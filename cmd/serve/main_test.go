package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mount/mounttest"
)

// TestUsageErrorsExit2 re-executes the test binary as serve itself (the child
// sees SERVE_ARGS and runs main) and checks that a bad flag is a usage error
// caught before anything is mounted: the message on stderr, exit status 2.
func TestUsageErrorsExit2(t *testing.T) {
	if args, ok := os.LookupEnv("SERVE_ARGS"); ok {
		os.Args = append([]string{"serve"}, strings.Fields(args)...)
		main()
		return
	}
	g := filepath.Join(t.TempDir(), "g.asg")
	if err := os.WriteFile(g, []byte("stub"), 0o644); err != nil {
		t.Fatal(err)
	}
	type usageCase struct{ args, want string }
	cases := []usageCase{
		{"-graph g=" + g + " -admission lifo", `serve: unknown -admission "lifo" (want priority or fifo)`},
		{"-graph g=" + g + " -shed maybe", `serve: unknown -shed "maybe" (want deadline or off)`},
		{"-graph g=" + g + " -ratelimit 5:x", `serve: -ratelimit: bad burst "5:x" (want rate[:burst])`},
		{"-graph g=" + g + " -tenant-limit =5", `tenant limit "=5": want name=rate[:burst]`},
		{"-graph g=" + g + " -ratelimit 100:Inf", `serve: -ratelimit: bad burst "100:Inf" (want rate[:burst])`},
		{"-graph g=" + g + " -tenant-limit gold=NaN", `bad rate "NaN" (want rate[:burst])`},
		{"-graph g=" + g + ",sem,limit=100:NaN", `bad burst "100:NaN" (want rate[:burst])`},
		{"-graph g=" + g + ",sem,Intel,Corsair", `second device profile "Corsair" (after "Intel")`},
		{"-graph g=" + g + " -queue -1", "MaxQueue -1 is negative"},
		{"-graph g=" + g + ",shards=-1", `bad shard count "shards=-1"`},
		{"", "serve: at least one -graph name=path is required"},
	}
	// The engine/mount flag block is shared with cmd/traverse and cmd/bench;
	// all three run the same table.
	for _, bad := range mounttest.BadFlags {
		cases = append(cases, usageCase{"-graph g=" + g + " " + bad.Args, bad.Want})
	}
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "SERVE_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("serve %s: %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("serve %s: output %q, want it to contain %q", tc.args, out, tc.want)
		}
	}
}
