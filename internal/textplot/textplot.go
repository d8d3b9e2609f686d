// Package textplot renders the experiment results as fixed-width text
// tables and simple ASCII charts, the output layer of the command-line
// tools.
package textplot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows of cells under a header and renders them with
// right-aligned columns.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// formatFloat picks a precision appropriate for the magnitude.
func formatFloat(v float64) string {
	switch a := math.Abs(v); {
	case v == math.Trunc(v) && a < 1e9:
		return fmt.Sprintf("%.0f", v)
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.1f", v)
	case a >= 0.1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(t.header) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series is one named line of a Chart.
type Series struct {
	Name string
	X, Y []float64
}

// Chart renders multiple series as a crude ASCII scatter, log-scaling the X
// axis when requested (cache sizes and block sizes are log-scaled in every
// figure of the paper).
type Chart struct {
	Title   string
	Width   int // plot columns (default 64)
	Height  int // plot rows (default 16)
	LogX    bool
	series  []Series
	markers string
}

// NewChart creates a chart.
func NewChart(title string) *Chart {
	return &Chart{Title: title, Width: 64, Height: 16, markers: "*o+x#@%&"}
}

// Add appends a series.
func (c *Chart) Add(s Series) { c.series = append(c.series, s) }

// Render writes the chart.
func (c *Chart) Render(w io.Writer) error {
	if len(c.series) == 0 {
		return fmt.Errorf("textplot: chart %q has no series", c.Title)
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tx := func(x float64) float64 {
		if c.LogX {
			return math.Log2(x)
		}
		return x
	}
	for _, s := range c.series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("textplot: series %q has %d xs for %d ys", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			xmin = math.Min(xmin, tx(s.X[i]))
			xmax = math.Max(xmax, tx(s.X[i]))
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.Width))
	}
	for si, s := range c.series {
		mark := c.markers[si%len(c.markers)]
		for i := range s.X {
			col := int((tx(s.X[i]) - xmin) / (xmax - xmin) * float64(c.Width-1))
			row := int((s.Y[i] - ymin) / (ymax - ymin) * float64(c.Height-1))
			grid[c.Height-1-row][col] = mark
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	fmt.Fprintf(&b, "%s\n", formatFloat(ymax))
	for _, row := range grid {
		fmt.Fprintf(&b, "| %s\n", row)
	}
	fmt.Fprintf(&b, "%s %s%s\n", formatFloat(ymin), strings.Repeat("-", c.Width), ">")
	fmt.Fprintf(&b, "  x: %s .. %s", formatFloat(untx(xmin, c.LogX)), formatFloat(untx(xmax, c.LogX)))
	if c.LogX {
		b.WriteString(" (log2)")
	}
	b.WriteByte('\n')
	for si, s := range c.series {
		fmt.Fprintf(&b, "  %c %s\n", c.markers[si%len(c.markers)], s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func untx(x float64, log bool) float64 {
	if log {
		return math.Exp2(x)
	}
	return x
}

// barRunes are the partial-width block glyphs of a horizontal bar, one per
// eighth of a cell (index 0 is unused: a zero-eighth remainder draws
// nothing).
var barRunes = []rune(" ▏▎▍▌▋▊▉█")

// Bar renders v scaled against max as a horizontal bar width cells wide,
// with eighth-cell resolution in the final glyph — the share columns of
// simreport's attribution tables. Out-of-range inputs degrade gracefully:
// v above max saturates, and a non-positive v, max or width renders "".
func Bar(v, max float64, width int) string {
	if width <= 0 || max <= 0 || v <= 0 || math.IsNaN(v) || math.IsNaN(max) {
		return ""
	}
	if v > max {
		v = max
	}
	eighths := int(v/max*float64(width*8) + 0.5)
	if eighths == 0 {
		eighths = 1 // a measured non-zero value is always visible
	}
	var b strings.Builder
	for i := 0; i < eighths/8; i++ {
		b.WriteRune('█')
	}
	if rem := eighths % 8; rem > 0 {
		b.WriteRune(barRunes[rem])
	}
	return b.String()
}

// sparkRunes are the eight block glyphs of a sparkline, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the values as one line of block glyphs, scaled to the
// finite min/max of the series. A flat series renders at the lowest level,
// non-finite values as spaces, and an empty series as "".
func Sparkline(values []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.WriteByte(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}
