package exps

// Plain-text tables and bar charts, so every figure and table of the
// paper regenerates on a terminal without plotting dependencies.

import (
	"fmt"
	"io"
	"strings"
)

// table is a simple column-aligned text table.
type table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v.
func (t *table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// histogram renders counts (bucket i is labeled i+1) as a horizontal
// bar chart scaled to maxWidth characters.
func histogram(w io.Writer, title string, counts []int) {
	fmt.Fprintln(w, title)
	max := 0
	for _, v := range counts {
		if v > max {
			max = v
		}
	}
	const maxWidth = 46
	width := len(fmt.Sprint(len(counts)))
	for i, v := range counts {
		n := 0
		if max > 0 {
			n = int(float64(v) / float64(max) * maxWidth)
		}
		fmt.Fprintf(w, "  %-*d %s %.3g\n", width, i+1, strings.Repeat("█", n), float64(v))
	}
}
