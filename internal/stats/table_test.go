package stats

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "count", "share %")
	tb.Row("alpha", 10, 1.5)
	tb.Row("b", 2000, 0.25)
	out := tb.String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %q", lines)
	}
	// First column left-aligned, rest right-aligned: the numeric columns'
	// last characters line up across rows.
	if !strings.HasPrefix(lines[0], "name") || !strings.HasPrefix(lines[1], "alpha") {
		t.Fatalf("first column not left-aligned:\n%s", out)
	}
	end := func(s, sub string) int { return strings.Index(s, sub) + len(sub) }
	if end(lines[1], "10") != end(lines[2], "2000") {
		t.Fatalf("count column not right-aligned:\n%s", out)
	}
	// Floats render with fixed precision.
	if !strings.Contains(lines[1], "1.5000") || !strings.Contains(lines[2], "0.2500") {
		t.Fatalf("float formatting:\n%s", out)
	}
	// No trailing spaces.
	for _, l := range lines {
		if l != strings.TrimRight(l, " ") {
			t.Fatalf("trailing spaces in %q", l)
		}
	}
}

func TestTableStringCells(t *testing.T) {
	tb := NewTable("k", "v")
	tb.Row("key", "value")
	if !strings.Contains(tb.String(), "value") {
		t.Fatalf("table: %q", tb.String())
	}
}
