// Package lint is the repository's project-specific static-analysis suite:
// stdlib-only (go/ast, go/parser, go/types, go/token) analyzers that machine-
// check conventions `go vet`, the race detector and the `-tags invariants`
// build cannot see: a lock-order cycle or a blocking call under a lock that
// no test schedule happens to fire, and code shapes no runtime check reaches.
//
// The analyzers (run by cmd/lint, enforced in CI):
//
//   - hotpath: no fmt calls, time.Now, map allocation, or closure creation
//     inside functions annotated `//lint:hotpath`;
//   - droppederr: ignored error results from Read/ReadAt/Write/WriteAt/
//     Close/Flush/Sync/Encode/WriteString calls, and `defer Close()` on a
//     write path whose write errors are otherwise handled;
//   - configcheck: every exported field of an exported ...Config struct must
//     be referenced by that package's validate/normalize function.
//
// On top of the per-package checks sits a whole-program layer (callgraph.go):
// a CHA-style static call graph with per-function may-acquire/may-block
// summaries, feeding two interprocedural analyzers:
//
//   - lockorder: cycles in the global mutex-acquisition-order graph
//     (AB/BA deadlock risk), `//lint:lockorder` documents a hierarchy;
//   - blockwhilelocked: no blocking operation while a sync.Mutex/RWMutex is
//     statically held, `//lint:blockwhilelocked` documents an exception.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the suite's canonical
// "file:line: analyzer: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one project-specific check. Per-package analyzers implement
// Run; whole-program (interprocedural) analyzers implement RunProgram and
// receive the call graph built once over the full package set.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(p *Package) []Diagnostic
	RunProgram func(prog *program) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Hotpath, DroppedErr, ConfigCheck, LockOrder, BlockWhileLocked,
	}
}

// RunAll applies every analyzer to every package and returns the findings
// sorted by file, line, and analyzer name. The whole-program view is built
// lazily, only when some analyzer in the set needs it.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				diags = append(diags, a.Run(p)...)
			}
		}
	}
	var prog *program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = buildProgram(pkgs)
		}
		diags = append(diags, a.RunProgram(prog)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
