package report

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Demo", "name", "value", "alpha", "beta", "2.500", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "c", "col2")
	tb.AddRow("longercell", "x")
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("line count = %d: %q", len(lines), sb.String())
	}
	// All lines equal width (right-padded).
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Errorf("misaligned lines: %q", lines)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `q"z`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"q\"\"z\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty column table accepted")
			}
		}()
		NewTable("x")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ragged row accepted")
			}
		}()
		NewTable("x", "a", "b").AddRow("only-one")
	}()
}

// TestTableAlignmentUnicode: column widths count runes, not bytes — a cell
// of multi-byte glyphs must align with plain-ASCII neighbours. Each
// rendered line's rune count must agree (byte counts legitimately differ).
func TestTableAlignmentUnicode(t *testing.T) {
	tb := NewTable("", "policy", "p99 (µs)")
	tb.AddRow("naïve-RR", "1.250")
	tb.AddRow("PF", "0.875")
	tb.AddRow("ほげ", "12.000")
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d: %q", len(lines), sb.String())
	}
	first := utf8.RuneCountInString(lines[0])
	for i, ln := range lines {
		if got := utf8.RuneCountInString(ln); got != first {
			t.Errorf("line %d is %d runes, line 0 is %d: %q", i, got, first, lines)
		}
	}
	// The separator matches the widest column in display positions: "p99
	// (µs)" is 8 runes (9 bytes) — a byte-width separator would be 9 dashes.
	if !strings.Contains(sb.String(), "--------") || strings.Contains(sb.String(), "---------") {
		t.Errorf("separator not sized in runes:\n%s", sb.String())
	}
}

// TestCSVEscapesControlBytes: cells bearing \r or \n must be quoted — an
// unquoted CR splits the record on CR-tolerant readers.
func TestCSVEscapesControlBytes(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("line1\rline2", "x\ny")
	tb.AddRow("plain", "ügly")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"line1\rline2\",\"x\ny\"\nplain,ügly\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}
