// Command lint runs the project's static check, hotpath (internal/lint), over
// the given package patterns (default ./...) and prints diagnostics as
//
//	file:line: hotpath: message
//
// Exit status: 0 when clean, 1 when any diagnostic fired, 2 on load errors
// (parse or type-check failure). CI runs `go run ./cmd/lint ./...` and treats
// any non-zero status as a gate failure.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	cwd, err := os.Getwd()
	if err != nil {
		cwd = ""
	}
	diags := lint.Hotpath(pkgs)
	for _, d := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
		}
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
