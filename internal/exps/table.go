package exps

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is one table of a paper artifact. A table without columns is a
// caption: only its title and notes print.
type Table struct {
	// Key names the table among its artifact's tables in CSV file names;
	// "" for an artifact's only table.
	Key   string
	Title string // printed above the table; a leading "\n" is a blank line
	Cols  []Col
	// Rows hold one cell per column: a string (a marker such as "-" or
	// "x", printed as it is), an int, a float64 or a time.Duration.
	Rows  [][]any
	Notes []string // printed below the table
	View  View
}

// Col declares one column: its header and how its cells print.
type Col struct {
	Head string
	// Fmt is the fmt verb of a numeric cell's text; "" prints a float64
	// with %.2f and anything else with %v.
	Fmt string
	// Round is the unit a time.Duration cell is rounded to in text.
	Round time.Duration
}

// View is how a table's rows print.
type View int

const (
	// Grid prints the header, a rule and the rows in aligned columns.
	Grid View = iota
	// Bars prints a bar chart of int counts: one bar per row, labeled by
	// its first cell and as long as its second.
	Bars
	// Lines prints each row on a line of its own, indented, its cells
	// joined by spaces.
	Lines
)

// text is a cell as the text view prints it.
func (c Col) text(v any) string {
	f := c.Fmt
	switch x := v.(type) {
	case string:
		return x
	case time.Duration:
		v = x.Round(c.Round)
	case float64:
		if f == "" {
			f = "%.2f"
		}
	}
	if f == "" {
		f = "%v"
	}
	return fmt.Sprintf(f, v)
}

// Print writes tables as text, in order.
func Print(w io.Writer, tables []Table) {
	for _, t := range tables {
		if t.Title != "" {
			fmt.Fprintln(w, t.Title)
		}
		cells := make([][]string, len(t.Rows))
		for r, row := range t.Rows {
			for c, v := range row {
				cells[r] = append(cells[r], t.Cols[c].text(v))
			}
		}
		switch {
		case len(t.Cols) == 0:
		case t.View == Bars:
			bars(w, t.Rows, cells)
		case t.View == Lines:
			for _, r := range cells {
				fmt.Fprintf(w, "  %s\n", strings.Join(r, " "))
			}
		default:
			grid(w, t.Cols, cells)
		}
		for _, n := range t.Notes {
			fmt.Fprintln(w, n)
		}
	}
}

// grid writes the header, a rule and the cells with aligned columns,
// measured in runes: a duration prints "µs", two bytes in one column.
func grid(w io.Writer, cols []Col, cells [][]string) {
	head, rule, widths := make([]string, len(cols)), make([]string, len(cols)), make([]int, len(cols))
	for i, c := range cols {
		head[i] = c.Head
	}
	lines := append([][]string{head, rule}, cells...)
	for _, r := range lines {
		for i, c := range r {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	for _, r := range lines {
		var sb strings.Builder
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(r)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		fmt.Fprintln(w, sb.String())
	}
}

// bars writes one bar per row, scaled so the largest count spans 46
// characters.
func bars(w io.Writer, rows [][]any, cells [][]string) {
	width, top := 0, 0
	for r, row := range rows {
		width, top = max(width, len(cells[r][0])), max(top, row[1].(int))
	}
	for r, row := range rows {
		v, n := float64(row[1].(int)), 0
		if top > 0 {
			n = int(v / float64(top) * 46)
		}
		fmt.Fprintf(w, "  %-*s %s %.3g\n", width, cells[r][0], strings.Repeat("█", n), v)
	}
}

// WriteCSV writes the table's header and rows as CSV. Numbers keep
// full precision: a float64 in the fewest digits that read back to the
// same value, a time.Duration in seconds.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		rec[i] = c.Head
	}
	cw.Write(rec)
	for _, row := range t.Rows {
		for i, v := range row {
			switch x := v.(type) {
			case float64:
				rec[i] = strconv.FormatFloat(x, 'g', -1, 64)
			case time.Duration:
				rec[i] = strconv.FormatFloat(x.Seconds(), 'g', -1, 64)
			default:
				rec[i] = fmt.Sprint(x)
			}
		}
		cw.Write(rec)
	}
	cw.Flush()
	return cw.Error()
}
