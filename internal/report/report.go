// Package report renders the experiment harness's tables as aligned ASCII
// (for the terminal) and CSV (for plotting) — the textual equivalents of
// the paper's Table I and Figure 1.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	if len(columns) == 0 {
		panic("report: table needs at least one column")
	}
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; it panics if the cell count mismatches the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row of formatted values: each value is rendered with
// %v, floats with 3 decimals.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.3f", x)
		case float32:
			cells[i] = fmt.Sprintf("%.3f", x)
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(cells...)
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) error {
	// Column widths count runes, not bytes: byte lengths over-pad every
	// column holding a multi-byte cell (µs units, policy names with
	// non-ASCII glyphs) and misalign the whole table.
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); n > widths[i] {
				widths[i] = n
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the table as CSV (header + rows). Cells containing commas,
// quotes, newlines or carriage returns are quoted per RFC 4180.
func (t *Table) WriteCSV(w io.Writer) error {
	rows := append([][]string{t.Columns}, t.rows...)
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = csvEscape(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a cell when RFC 4180 requires it: commas, quotes and
// both newline bytes — a bare \r inside an unquoted field splits the record
// on readers that accept CR line endings.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n\r") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// pad right-pads s to w display positions, counting runes (see Fprint).
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}
