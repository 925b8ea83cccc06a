package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is the shared fixed-width table formatter used by `samrun paper`'s
// figures and ablations and the trace analyzer's recovery reports. Columns are
// sized to their widest cell; the first column is left-aligned (labels),
// all others right-aligned (numbers), matching the layout of the paper's
// statistics tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends one row. Cells are rendered with %v, except floats which
// use %.4f to keep run-to-run diffs readable; pass pre-formatted strings
// for any other precision.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case float32:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Fprint renders the table. Every column is two spaces apart; a header
// is printed only when the table was created with one.
func (t *Table) Fprint(w io.Writer) {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	if len(t.header) > 0 {
		measure(t.header)
	}
	for _, r := range t.rows {
		measure(r)
	}
	emit := func(row []string) {
		var b strings.Builder
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
			} else {
				b.WriteString(strings.Repeat(" ", width[i]-len(c)))
				b.WriteString(c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	if len(t.header) > 0 {
		emit(t.header)
	}
	for _, r := range t.rows {
		emit(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}
