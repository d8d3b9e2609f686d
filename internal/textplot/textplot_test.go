package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("title", "name", "value")
	tab.Row("alpha", 1)
	tab.Row("beta", 2.5)
	tab.Row("gamma", "x")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"title", "name", "value", "alpha", "2.500", "gamma"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line has the same width.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tab := NewTable("", "a")
	tab.Row(1)
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(b.String(), "\n") {
		t.Error("blank title line emitted")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{1234.5, "1234"},
		{42.42, "42.4"},
		{0.5, "0.500"},
		{0.01234, "0.01234"},
		{-7, "-7"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestChartRender(t *testing.T) {
	ch := NewChart("perf")
	ch.Add(Series{Name: "dm", X: []float64{4, 8, 16, 32}, Y: []float64{10, 7, 5, 4}})
	ch.Add(Series{Name: "2way", X: []float64{4, 8, 16, 32}, Y: []float64{9, 6, 4, 3}})
	ch.LogX = true
	var b strings.Builder
	if err := ch.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"perf", "dm", "2way", "(log2)", "*", "o"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
}

func TestChartErrors(t *testing.T) {
	ch := NewChart("empty")
	var b strings.Builder
	if err := ch.Render(&b); err == nil {
		t.Error("empty chart rendered")
	}
	ch.Add(Series{Name: "bad", X: []float64{1}, Y: []float64{1, 2}})
	if err := ch.Render(&b); err == nil {
		t.Error("mismatched series rendered")
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	// Single point: both axes degenerate; must not divide by zero.
	ch := NewChart("point")
	ch.Add(Series{Name: "p", X: []float64{5}, Y: []float64{7}})
	var b strings.Builder
	if err := ch.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "p") {
		t.Error("legend missing")
	}
}

func TestSparkline(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		want   string
	}{
		{"empty", nil, ""},
		{"single", []float64{3}, "▁"},
		{"flat", []float64{2, 2, 2}, "▁▁▁"},
		{"ramp", []float64{0, 1, 2, 3, 4, 5, 6, 7}, "▁▂▃▄▅▆▇█"},
		{"extremes", []float64{0, 7, 0}, "▁█▁"},
		{"non-finite", []float64{1, math.NaN(), 2, math.Inf(1), 3}, "▁ ▄ █"},
		{"all-nan", []float64{math.NaN(), math.NaN()}, "  "},
		{"negative", []float64{-4, -2, 0}, "▁▄█"},
	}
	for _, c := range cases {
		if got := Sparkline(c.values); got != c.want {
			t.Errorf("%s: Sparkline(%v) = %q, want %q", c.name, c.values, got, c.want)
		}
	}
}

func TestBar(t *testing.T) {
	cases := []struct {
		name   string
		v, max float64
		width  int
		want   string
	}{
		{"full", 10, 10, 4, "████"},
		{"half", 5, 10, 4, "██"},
		{"eighth", 1, 8, 1, "▏"},
		{"saturates", 20, 10, 3, "███"},
		{"zero", 0, 10, 4, ""},
		{"negative", -1, 10, 4, ""},
		{"bad-max", 5, 0, 4, ""},
		{"bad-width", 5, 10, 0, ""},
		{"nan", math.NaN(), 10, 4, ""},
	}
	for _, c := range cases {
		if got := Bar(c.v, c.max, c.width); got != c.want {
			t.Errorf("%s: Bar(%v, %v, %d) = %q, want %q", c.name, c.v, c.max, c.width, got, c.want)
		}
	}
}

func TestBarTinyValueVisible(t *testing.T) {
	// A measured non-zero share must render at least one glyph, however
	// small against the maximum.
	if got := Bar(0.0001, 1e9, 20); got == "" {
		t.Error("tiny non-zero value rendered as empty bar")
	}
}

func TestBarMonotone(t *testing.T) {
	prev := -1
	for v := 0.0; v <= 64; v++ {
		n := len([]rune(Bar(v, 64, 8)))
		if n < prev {
			t.Fatalf("bar shrank at v=%v", v)
		}
		prev = n
	}
}

func TestSparklineWidthMatchesInput(t *testing.T) {
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = float64(i % 9)
	}
	if got := len([]rune(Sparkline(vals))); got != len(vals) {
		t.Fatalf("sparkline has %d glyphs for %d values", got, len(vals))
	}
}
