// Package lint is the repository's one project-specific static check,
// stdlib-only (go/ast, go/parser, go/types, go/token): hotpath, the costs on
// the per-visit path that do not allocate. In functions annotated
// `//lint:hotpath` it flags map allocation and time.Now. What allocates
// there (fmt calls, escaping closures, append growth, per-iteration makes) is
// not parsed for: the steady-state allocation tests count it (EXPERIMENTS.md
// "Allocation is measured"). A map that never escapes is built on the
// stack, so no counter sees it, yet it made Ctx.Push 43 % slower in the
// lint audit (EXPERIMENTS.md "Lint audit"); its seed is a case in
// testdata/fixture.
//
// cmd/lint and TestRepositoryIsClean run the check; CI enforces it.
package lint

import (
	"fmt"
	"go/token"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// String renders the finding in the canonical "file:line: hotpath: message"
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, hotpathName, d.Message)
}
