// Package mounttest holds the one table of retired engine/mount flags that
// the re-exec usage tests of cmd/traverse, cmd/bench and cmd/serve all run,
// so the three binaries are held to the same message for the same mistake.
package mounttest

// BadFlag is one bad invocation: the arguments to append to an otherwise
// valid command line, and the message the binary must print before exiting 2
// — after its "name: " prefix when the binary's own validation caught it,
// bare when the flag package did.
type BadFlag struct{ Args, Want string }

// BadFlags is the table. The -direction, -prefetch and -semisort rows hold the
// binaries to rejecting selections the traversal and the mount now make
// themselves, the -engine row to running the engine under test and nothing
// else (the comparators are cmd/bench's exhibits).
var BadFlags = []BadFlag{
	{"-direction hybrid", "flag provided but not defined: -direction"},
	{"-prefetch 16", "flag provided but not defined: -prefetch"},
	{"-semisort=false", "flag provided but not defined: -semisort"},
	{"-engine bsp", "flag provided but not defined: -engine"},
}
