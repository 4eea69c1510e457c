// Package tablefmt renders the experiment harness's output: fixed-width
// text tables (for the paper's tables) and aligned x/y series (for its
// figures), written to any io.Writer.
package tablefmt

import (
	"fmt"
	"io"
	"strings"
)

// Renderer is anything that can render itself as fixed-width text. Every
// experiment result satisfies it; Table and Series are the canonical
// implementations.
type Renderer interface {
	Render(w io.Writer)
}

// CSVRenderer is a Renderer that can also emit itself as RFC-4180 CSV.
// Output consumers (cmd/dxbench's -format csv) type-assert against this
// interface instead of falling back to text silently.
type CSVRenderer interface {
	Renderer
	RenderCSV(w io.Writer)
}

var (
	_ CSVRenderer = (*Table)(nil)
	_ CSVRenderer = (*Series)(nil)
)

// Table accumulates rows and renders them with aligned columns. Footnotes
// added with AddFootnote render after the rows; degraded experiment runs
// use them to annotate failed cells.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	notes   []string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added.
func (t *Table) NumRows() int { return len(t.rows) }

// AddFootnote records a footnote rendered after the table's rows and
// returns its 1-based reference number, for use in a cell.
func (t *Table) AddFootnote(text string) int {
	t.notes = append(t.notes, text)
	return len(t.notes)
}

func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	for i, n := range t.notes {
		fmt.Fprintf(w, "[%d] %s\n", i+1, n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderCSV writes the table as RFC-4180-style CSV (header row first).
// Cells containing commas, quotes or newlines are quoted. Footnotes are
// emitted as trailing # comments so the stream stays machine-parseable.
func (t *Table) RenderCSV(w io.Writer) {
	writeCSVRow(w, t.Headers)
	for _, row := range t.rows {
		writeCSVRow(w, row)
	}
	for i, n := range t.notes {
		fmt.Fprintf(w, "# [%d] %s\n", i+1, n)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		parts[i] = c
	}
	fmt.Fprintln(w, strings.Join(parts, ","))
}

// Series is a labeled set of y-values over shared x-values — one "figure".
type Series struct {
	Title  string
	XLabel string
	X      []float64
	lines  []seriesLine
}

type seriesLine struct {
	label string
	y     []float64
}

// NewSeries returns a figure with the given x axis.
func NewSeries(title, xLabel string, x []float64) *Series {
	return &Series{Title: title, XLabel: xLabel, X: x}
}

// Add appends a named line; y must match the x axis in length.
func (s *Series) Add(label string, y []float64) {
	if len(y) != len(s.X) {
		panic(fmt.Sprintf("tablefmt: series %q: %d points for %d x-values", label, len(y), len(s.X)))
	}
	s.lines = append(s.lines, seriesLine{label: label, y: y})
}

// Render writes the series as a table with one row per x-value.
func (s *Series) Render(w io.Writer) {
	s.toTable().Render(w)
}

// RenderCSV writes the series as CSV.
func (s *Series) RenderCSV(w io.Writer) {
	s.toTable().RenderCSV(w)
}

func (s *Series) toTable() *Table {
	headers := make([]string, 0, len(s.lines)+1)
	headers = append(headers, s.XLabel)
	for _, l := range s.lines {
		headers = append(headers, l.label)
	}
	t := New(s.Title, headers...)
	for i, x := range s.X {
		cells := make([]interface{}, 0, len(headers))
		cells = append(cells, x)
		for _, l := range s.lines {
			cells = append(cells, l.y[i])
		}
		t.AddRow(cells...)
	}
	return t
}
