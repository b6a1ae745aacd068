package exps

import (
	"bytes"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestTableAlignment(t *testing.T) {
	tb := Table{Cols: []Col{{Head: "name"}, {Head: "value"}}}
	tb.Rows = append(tb.Rows, []any{"short", 1})
	tb.Rows = append(tb.Rows, []any{"a-much-longer-name", 2.5})
	var buf bytes.Buffer
	Print(&buf, []Table{tb})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (header, separator, 2 rows)", len(lines))
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns align: "value" cells start at the same offset.
	off := strings.Index(lines[2], "1")
	if off < 0 || !strings.HasPrefix(lines[3][off-len("a-much-longer-name")+len("short"):], "") {
		t.Logf("rows: %q / %q", lines[2], lines[3])
	}
	if !strings.Contains(lines[3], "2.50") {
		t.Errorf("float not formatted: %q", lines[3])
	}

	// A duration in microseconds prints "µs", two bytes in one column:
	// the column after it starts at the same rune in every row.
	tb = Table{Cols: []Col{{Head: "time"}, {Head: "next"}}}
	tb.Rows = append(tb.Rows, []any{834 * time.Microsecond, "a"})
	tb.Rows = append(tb.Rows, []any{1398 * time.Microsecond, "b"})
	buf.Reset()
	Print(&buf, []Table{tb})
	lines = strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 || !strings.Contains(lines[2], "834µs") || !strings.Contains(lines[3], "1.398ms") {
		t.Fatalf("duration rows = %q", lines)
	}
	for i, want := range []string{"next", "-", "a", "b"} {
		at := strings.Index(lines[i], "  "+want) + len("  ")
		if got := utf8.RuneCountInString(lines[i][:at]); got != len("1.398ms  ") {
			t.Errorf("line %d: %q starts at rune %d, want %d: %q", i, want, got, len("1.398ms  "), lines)
		}
	}
}

func TestBars(t *testing.T) {
	bars := func(title string, counts ...int) []Table {
		tb := Table{Title: title, Cols: []Col{{Head: "bucket"}, {Head: "count"}}, View: Bars}
		for i, v := range counts {
			tb.Rows = append(tb.Rows, []any{i + 1, v})
		}
		return []Table{tb}
	}
	var buf bytes.Buffer
	Print(&buf, bars("demo", 1, 2))
	out := buf.String()
	if !strings.Contains(out, "demo") {
		t.Error("missing title")
	}
	// The larger value gets the longer bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[2], "█") <= strings.Count(lines[1], "█") {
		t.Error("bars not proportional")
	}
	// Zero-max edge case must not divide by zero.
	buf.Reset()
	Print(&buf, bars("zeros", 0))
	if !strings.Contains(buf.String(), "0") {
		t.Error("zero bars broken")
	}
}
