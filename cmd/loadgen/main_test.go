package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUsageErrorsExit2 re-executes the test binary as loadgen itself (the
// child sees LOADGEN_ARGS and runs main) and checks that a bad serving-policy
// flag is a usage error: the message on stderr, exit status 2.
func TestUsageErrorsExit2(t *testing.T) {
	if args, ok := os.LookupEnv("LOADGEN_ARGS"); ok {
		os.Args = append([]string{"loadgen"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-sim -vertices 64 -admission lifo", `loadgen: unknown -admission "lifo" (want priority or fifo)`},
		{"-sim -vertices 64 -shed maybe", `loadgen: unknown -shed "maybe" (want deadline or off)`},
		{"-sim -vertices 64 -ratelimit fast", `loadgen: -ratelimit: bad rate "fast" (want rate[:burst])`},
		{"-sim -vertices 64 -tenant-limit nobody", `tenant limit "nobody": want name=rate[:burst]`},
		{"-sim -vertices 64 -ratelimit NaN", `loadgen: -ratelimit: bad rate "NaN" (want rate[:burst])`},
		{"-sim -vertices 64 -tenant-limit gold=100:Inf", `bad burst "100:Inf" (want rate[:burst])`},
		{"-sim -vertices 64 -concurrency -1", "Slots -1 is negative"},
		{"-vertices 64", "loadgen: exactly one of -url, -graph, or -sim must be given"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrorsExit2$")
		cmd.Env = append(os.Environ(), "LOADGEN_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("loadgen %s: %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("loadgen %s: output %q, want it to contain %q", tc.args, out, tc.want)
		}
	}
}
