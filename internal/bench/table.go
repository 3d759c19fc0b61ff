// Package bench implements the experiment harness: every table and figure
// of the reconstructed evaluation (E1–E8, experiments.go) is regenerated
// by a RunE* function that returns a formatted Table plus structured rows
// the tests assert qualitative shapes on.
package bench

import (
	"fmt"
	"strings"
)

// Table is a paper-style results table.
type Table struct {
	ID     string // experiment id, e.g. "E4"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Bars renders a text bar chart (the "figure" analogue): one row per
// label, bar length proportional to value.
func Bars(title string, labels []string, values []float64, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	for i, v := range values {
		n := int(40 * v / maxV)
		fmt.Fprintf(&b, "  %-*s %6.2f%s |%s\n", maxL, labels[i], v, unit, strings.Repeat("#", n))
	}
	return b.String()
}
