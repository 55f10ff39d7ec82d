package lint

// SpawnJoin demands that every `go` statement have a reachable join: some
// acknowledgement, reachable from the spawned function through static calls,
// that lets the rest of the program observe the goroutine's completion.
// Accepted join signals, in the repo's order of idiom:
//
//   - a (transitive) call to sync.WaitGroup.Done — covers `defer wg.Done()`
//     literals and the worker -> retire -> wg.Done chain behind
//     Engine.Wait/Terminator retirement;
//   - a builtin close() of any channel — a block fetch's ready channel and the
//     watcher's done-channel handshake;
//   - a receive from a Done()-method channel — the context-watcher idiom:
//     the goroutine is bounded by its context's lifetime;
//   - a channel send, provided the channel is not provably unbuffered, or —
//     when it is — the spawning function itself receives from the same
//     channel class. A goroutine whose only completion signal is a send on
//     an unbuffered channel that its spawner never drains leaks forever the
//     moment the receiver abandons it, so that case is reported separately.
//
// A goroutine that is detached by design (a process-lifetime flusher) is
// documented with `//lint:spawnjoin <why>` at the go statement.
const spawnJoinName = "spawnjoin"

var SpawnJoin = &Analyzer{
	Name:       spawnJoinName,
	Doc:        "every go statement needs a reachable join (WaitGroup.Done, close, context watcher, or a safe channel send)",
	RunProgram: runSpawnJoin,
}

func runSpawnJoin(prog *program) []Diagnostic {
	var diags []Diagnostic
	for _, n := range prog.order {
		for _, s := range n.spawns {
			if prog.suppressed(spawnJoinName, s.pos) {
				continue
			}
			callee := prog.nodes[s.callee]
			if callee == nil {
				diags = append(diags, Diagnostic{
					Pos:      prog.fset.Position(s.pos),
					Analyzer: spawnJoinName,
					Message:  "goroutine target is a dynamic function value; no join can be verified (name the function, or annotate //lint:spawnjoin)",
				})
				continue
			}
			if callee.joinsWG || callee.joinsClose || callee.joinsCtx {
				continue
			}
			// No structural join signal: channel sends are the last resort.
			unbuffered := ""
			joined := false
			for _, send := range callee.joinSends {
				if send.class == "" || prog.chanBuf[send.class] != bufUnbuffered {
					joined = true // buffered or unknown: the send cannot wedge the goroutine forever
					break
				}
				if n.recvs[send.class] {
					joined = true // the spawner itself drains the channel
					break
				}
				unbuffered = send.class
			}
			if joined {
				continue
			}
			msg := "goroutine has no reachable join: no WaitGroup.Done, channel close, send, or context-done receive on any path — a leak unless it is detached by design (//lint:spawnjoin)"
			if unbuffered != "" {
				msg = "goroutine's only completion signal is a send on unbuffered channel " + shortName(unbuffered) + ", which its spawner never receives; an abandoned receiver leaks the goroutine — buffer the channel or join it"
			}
			diags = append(diags, Diagnostic{
				Pos:      prog.fset.Position(s.pos),
				Analyzer: spawnJoinName,
				Message:  msg,
			})
		}
	}
	return diags
}
