package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Table is one result table of the benchmark harness, in the spirit of the
// paper's: a title, columns that each say once how their numbers print, and
// rows of values — float64, int, uint64, string, bool, a slice, a Mark or a
// Text. Numbers stay numbers until Render, the one place they turn into
// text, so a reader can take a column by its header; the lines above the
// title (Lead) and under the rows (Note) keep theirs as format arguments the
// same way.
type Table struct {
	Title   Text
	Columns []Column
	Rows    [][]any
	Leads   []Text
	Notes   []Text
}

// Column is a header and the format its float64 values print in; every
// other value prints with %v, a Text as itself.
type Column struct {
	Header string
	format func(float64) string
}

// Col is a column whose values print verbatim (%v).
func Col(header string) Column { return Column{Header: header} }

// Fixed is a column of floats with a fixed number of decimals.
func Fixed(header string, decimals int) Column {
	return Column{header, func(v float64) string { return fmt.Sprintf("%.*f", decimals, v) }}
}

// Pct is a column of fractions printed as percentages: 0.123 → "12.3%" at
// one decimal.
func Pct(header string, decimals int) Column {
	return Column{header, func(v float64) string { return fmt.Sprintf("%.*f%%", decimals, 100*v) }}
}

// MS is a column of milliseconds, printed by FormatMS.
func MS(header string) Column { return Column{header, FormatMS} }

// Mark is a float that carries the paper's failure mark: it prints in its
// column's format, followed by " (x)" when X is set.
type Mark struct {
	Value float64
	X     bool
}

// Text is text whose numbers are still arguments: Format applied to Args,
// or Format verbatim when there are none. As a cell it ignores its column's
// format — a row label with a number in it, or a cell that prints unlike
// its column.
type Text struct {
	Format string
	Args   []any
}

// Textf builds a Text.
func Textf(format string, args ...any) Text { return Text{format, args} }

func (t Text) String() string {
	if t.Args == nil {
		return t.Format
	}
	return fmt.Sprintf(t.Format, t.Args...)
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, cols ...Column) *Table {
	return &Table{Title: Text{Format: title}, Columns: cols}
}

// AddRow appends a row of values, one per column.
func (t *Table) AddRow(values ...any) { t.Rows = append(t.Rows, values) }

// Lead appends a line rendered above the title.
func (t *Table) Lead(format string, args ...any) { t.Leads = append(t.Leads, Text{format, args}) }

// Note appends a line rendered under the rows.
func (t *Table) Note(format string, args ...any) { t.Notes = append(t.Notes, Text{format, args}) }

// text renders one value in column c's format.
func (c Column) text(v any) string {
	switch v := v.(type) {
	case float64:
		if c.format != nil {
			return c.format(v)
		}
	case Mark:
		s := c.text(v.Value)
		if v.X {
			s += " (x)"
		}
		return s
	case Text:
		return v.String()
	}
	return fmt.Sprint(v)
}

// Floats returns the values under the first column headed header, one per
// row: a number's value, a Mark's Value, NaN for anything else. Nil if no
// column has that header.
func (t *Table) Floats(header string) []float64 {
	for ci, c := range t.Columns {
		if c.Header != header {
			continue
		}
		out := make([]float64, len(t.Rows))
		for ri, r := range t.Rows {
			out[ri] = math.NaN()
			if ci < len(r) {
				if f, ok := number(r[ci]); ok {
					out[ri] = f
				}
			}
		}
		return out
	}
	return nil
}

func number(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case uint64:
		return float64(v), true
	case Mark:
		return v.Value, true
	}
	return 0, false
}

// Check reports the first way t is malformed: no rows, a row not as wide as
// the header, or a NaN or infinite number in a row or a line.
func (t *Table) Check() error {
	if len(t.Rows) == 0 {
		return fmt.Errorf("table %q: no rows", t.Title)
	}
	for i, r := range t.Rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("table %q: row %d has %d values for %d columns", t.Title, i, len(r), len(t.Columns))
		}
		if !finite(r...) {
			return fmt.Errorf("table %q: row %d holds a NaN or infinite number", t.Title, i)
		}
	}
	for _, l := range slices.Concat([]Text{t.Title}, t.Leads, t.Notes) {
		if !finite(l) {
			return fmt.Errorf("table %q: line %q holds a NaN or infinite number", t.Title, l.Format)
		}
	}
	return nil
}

// finite reports whether every number among vals, and among the arguments
// of every Text there, is finite.
func finite(vals ...any) bool {
	for _, v := range vals {
		if tx, ok := v.(Text); ok && !finite(tx.Args...) {
			return false
		}
		if f, ok := number(v); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
			return false
		}
	}
	return true
}

// Render returns the formatted table: its Lead lines, the title, the header,
// a rule, the rows in their columns' formats, then its Note lines.
func (t *Table) Render() string {
	lines := [][]string{make([]string, len(t.Columns)), nil}
	for i, c := range t.Columns {
		lines[0][i] = c.Header
	}
	for _, r := range t.Rows {
		row := make([]string, len(r))
		for i, v := range r {
			var c Column // a value past the last column prints verbatim
			if i < len(t.Columns) {
				c = t.Columns[i]
			}
			row[i] = c.text(v)
		}
		lines = append(lines, row)
	}
	var widths []int
	for _, r := range lines {
		for i, s := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(s))
		}
	}
	for _, w := range widths {
		lines[1] = append(lines[1], strings.Repeat("-", w))
	}

	var b strings.Builder
	for _, l := range t.Leads {
		b.WriteString(l.String() + "\n")
	}
	if title := t.Title.String(); title != "" {
		fmt.Fprintf(&b, "== %s ==\n", title)
	}
	for _, r := range lines {
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			s := ""
			if i < len(r) {
				s = r[i]
			}
			fmt.Fprintf(&b, "%-*s", w, s)
		}
		b.WriteString("\n")
	}
	for _, l := range t.Notes {
		b.WriteString(l.String() + "\n")
	}
	return b.String()
}
