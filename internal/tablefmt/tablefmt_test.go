package tablefmt

import (
	"fmt"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := New("Machines", "name", "procs", "banks")
	tbl.AddRow("C90", 16, 1024)
	tbl.AddRow("J90", 32, 1024)
	var b strings.Builder
	tbl.Render(&b)
	out := b.String()
	for _, want := range []string{"== Machines ==", "name", "C90", "1024", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tbl := New("", "v")
	tbl.AddRow(0.0)
	tbl.AddRow(1234567.0)
	tbl.AddRow(0.0001234)
	tbl.AddRow(3.14159)
	tbl.AddRow(250.5)
	var b strings.Builder
	tbl.Render(&b)
	out := b.String()
	for _, want := range []string{"0\n", "1.23e+06", "0.000123", "3.142", "250.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := New("", "a")
	tbl.AddRow(1)
	var b strings.Builder
	tbl.Render(&b)
	if strings.Contains(b.String(), "==") {
		t.Error("untitled table rendered a title")
	}
}

func TestSeriesRender(t *testing.T) {
	s := NewSeries("Fig 1", "contention", []float64{1, 2, 4})
	s.Add("measured", []float64{10, 20, 40})
	s.Add("predicted", []float64{11, 19, 42})
	var b strings.Builder
	s.Render(&b)
	out := b.String()
	for _, want := range []string{"Fig 1", "contention", "measured", "predicted", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := New("x", "name", "value")
	tbl.AddRow("plain", 1)
	tbl.AddRow("with,comma", 2)
	tbl.AddRow(`with"quote`, 3)
	var b strings.Builder
	tbl.RenderCSV(&b)
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `"with,comma",2` {
		t.Errorf("comma row = %q", lines[2])
	}
	if lines[3] != `"with""quote",3` {
		t.Errorf("quote row = %q", lines[3])
	}
}

func TestSeriesRenderCSV(t *testing.T) {
	s := NewSeries("f", "x", []float64{1, 2})
	s.Add("y", []float64{10, 20})
	var b strings.Builder
	s.RenderCSV(&b)
	out := b.String()
	if !strings.HasPrefix(out, "x,y\n") || !strings.Contains(out, "2.000,20.000") {
		t.Errorf("series CSV = %q", out)
	}
}

func TestSeriesLengthMismatchPanics(t *testing.T) {
	s := NewSeries("x", "x", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	s.Add("bad", []float64{1})
}

// Footnotes render after the rows, numbered in insertion order, in both
// text and CSV (as comments, so the stream stays machine-parseable).
func TestTableFootnotes(t *testing.T) {
	tb := New("t", "a", "b")
	n1 := tb.AddFootnote("first note")
	tb.AddRow("x", fmt.Sprintf("FAILED [%d]", n1))
	n2 := tb.AddFootnote("second note")
	tb.AddRow("y", fmt.Sprintf("FAILED [%d]", n2))
	if n1 != 1 || n2 != 2 {
		t.Fatalf("refs = %d, %d", n1, n2)
	}
	if len(tb.notes) != 2 {
		t.Errorf("footnotes = %d", len(tb.notes))
	}

	var b strings.Builder
	tb.Render(&b)
	out := b.String()
	if !strings.Contains(out, "FAILED [1]") || !strings.Contains(out, "\n[1] first note\n") {
		t.Errorf("text render:\n%s", out)
	}
	if idx1, idx2 := strings.Index(out, "[1] first note"), strings.Index(out, "[2] second note"); idx1 > idx2 {
		t.Error("footnotes out of order")
	}

	var c strings.Builder
	tb.RenderCSV(&c)
	if !strings.Contains(c.String(), "# [1] first note\n") || !strings.Contains(c.String(), "# [2] second note\n") {
		t.Errorf("csv render:\n%s", c.String())
	}
}

// A table without footnotes renders exactly as before.
func TestTableNoFootnotes(t *testing.T) {
	tb := New("t", "a")
	tb.AddRow("x")
	var b strings.Builder
	tb.Render(&b)
	if strings.Contains(b.String(), "[1]") {
		t.Errorf("phantom footnote:\n%s", b.String())
	}
}
