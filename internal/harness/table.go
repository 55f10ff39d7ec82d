// Package harness drives the reproduction of the paper's evaluation: one
// runner per table or figure (Figure 1, Tables I-V) plus the ablation sweeps
// DESIGN.md calls out. cmd/bench is its one front end, so the printed rows
// come from a single implementation.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a formatted result table mirroring one of the paper's tables.
type Table struct {
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// Add appends a row; cells beyond len(Cols) are dropped, missing cells are
// blank.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Cols))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Cols)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
}

// Seconds formats a duration as the paper's "time (s)" cells.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// Ratio formats a speedup/scaling cell.
func Ratio(num, den time.Duration) string {
	if den <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", num.Seconds()/den.Seconds())
}

// timeIt runs fn once and returns its wall-clock duration, propagating any
// error.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
