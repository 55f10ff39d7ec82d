// Package mounttest holds the one table of bad engine/mount flag values that
// the re-exec usage tests of cmd/traverse, cmd/bench and cmd/serve all run,
// so the three binaries are held to the same message for the same mistake.
package mounttest

// BadFlag is one bad invocation of the flag block mount.Bind registers: the
// arguments to append to an otherwise valid command line, and the message
// the binary must print after its "name: " prefix before exiting 2.
type BadFlag struct{ Args, Want string }

// BadFlags is the table.
var BadFlags = []BadFlag{
	{"-direction sideways", `-direction: core: unknown direction "sideways" (want topdown, bottomup, or hybrid)`},
	{"-prefetchgap 3x", `-prefetchgap: bad byte size "3x" (want digits with optional k/KiB/m/MiB suffix)`},
	{"-cachepolicy mru", `-cachepolicy: sem: unknown cache policy "mru" (want lru or state)`},
	{"-prefetch -1", "-prefetch must be >= 0, got -1"},
}
