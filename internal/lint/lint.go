// Package lint is the repository's project-specific static-analysis suite:
// stdlib-only (go/ast, go/parser, go/types, go/token) analyzers that machine-
// check conventions `go vet`, the race detector and the `-tags invariants`
// build cannot see. Each one stays because a seeded bug that every other
// layer missed is caught by it alone (EXPERIMENTS.md "Lint audit"); the
// seed is a case in testdata/fixture.
//
// The one analyzer (run by cmd/lint and by TestRepositoryIsClean, enforced
// in CI) is hotpath: no fmt calls, time.Now, map allocation, or closure
// creation inside functions annotated `//lint:hotpath` (a map that never
// escapes allocates nothing an AllocsPerRun check can count).
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

// Analyzer is one project-specific check, run on one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Hotpath}
}

// RunAll applies every analyzer to every package and returns the findings
// sorted by file, line, and analyzer name.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			diags = append(diags, a.Run(p)...)
		}
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
