package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU
BenchmarkFigure3_1-8   	       5	 230123456 ns/op	  98304 refs	   96 B/op	       2 allocs/op
BenchmarkTable2MemoryCycles-8  	 1000000	      1042 ns/op	     0 B/op	       0 allocs/op
some test log line that should be ignored
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOOS != "linux" || snap.GOARCH != "amd64" || snap.Package != "repro" {
		t.Errorf("header = %+v", snap)
	}
	if len(snap.Benches) != 2 {
		t.Fatalf("benches = %+v", snap.Benches)
	}
	b := snap.Benches[0]
	if b.Name != "BenchmarkFigure3_1" || b.Iters != 5 {
		t.Errorf("bench[0] = %+v", b)
	}
	want := map[string]float64{"ns/op": 230123456, "refs": 98304, "B/op": 96, "allocs/op": 2}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("%s = %v, want %v", unit, b.Metrics[unit], v)
		}
	}
	// A snapshot of `make bench` output names benchmarks as allocgate does.
	snap, err = Parse(strings.NewReader("BenchmarkBehavioralPass-2  26  44000000 ns/op  280000 B/op  26 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benches) != 1 || snap.Benches[0].Name != "BenchmarkBehavioralPass" {
		t.Errorf("suffixed bench = %+v", snap.Benches)
	}
}

func TestParseScientificNotation(t *testing.T) {
	snap, err := Parse(strings.NewReader("BenchmarkX-4  3  1.5e+09 ns/op  9.8e+04 refs/s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benches) != 1 || snap.Benches[0].Metrics["refs/s"] != 9.8e4 {
		t.Errorf("snap = %+v", snap)
	}
}

func TestDiffString(t *testing.T) {
	oldSnap := &Snapshot{Benches: []Bench{
		{Name: "BenchmarkA-8", Iters: 10, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 4}},
		{Name: "BenchmarkGone-8", Iters: 1, Metrics: map[string]float64{"ns/op": 5}},
	}}
	newSnap := &Snapshot{Benches: []Bench{
		{Name: "BenchmarkA-8", Iters: 10, Metrics: map[string]float64{"ns/op": 150, "allocs/op": 2}},
		{Name: "BenchmarkNew-8", Iters: 1, Metrics: map[string]float64{"ns/op": 7}},
	}}
	out := DiffString(oldSnap, newSnap)
	for _, want := range []string{
		"ns/op +50.0%", "allocs/op -50.0%",
		"BenchmarkNew-8", "(new benchmark)",
		"BenchmarkGone-8", "(removed)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output lacks %q:\n%s", want, out)
		}
	}
	// ns/op leads the metric list.
	lineA := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(lineA, "BenchmarkA-8") || strings.Index(lineA, "ns/op") > strings.Index(lineA, "allocs/op") {
		t.Errorf("ns/op not first on line: %q", lineA)
	}
}

// TestSlowdowns: the -fail-over gate flags only shared benchmarks whose
// ns/op grew beyond the percentage; new, removed and faster benchmarks
// never trip it.
func TestSlowdowns(t *testing.T) {
	oldSnap := &Snapshot{Benches: []Bench{
		{Name: "BenchmarkSlow-8", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkFast-8", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkEdge-8", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkGone-8", Metrics: map[string]float64{"ns/op": 100}},
	}}
	newSnap := &Snapshot{Benches: []Bench{
		{Name: "BenchmarkSlow-8", Metrics: map[string]float64{"ns/op": 120}}, // +20%
		{Name: "BenchmarkFast-8", Metrics: map[string]float64{"ns/op": 50}},  // faster
		{Name: "BenchmarkEdge-8", Metrics: map[string]float64{"ns/op": 104}}, // +4%, under gate
		{Name: "BenchmarkNew-8", Metrics: map[string]float64{"ns/op": 9999}},
	}}
	slow := Slowdowns(oldSnap, newSnap, 5, nil)
	if len(slow) != 1 || !strings.Contains(slow[0], "BenchmarkSlow-8") || !strings.Contains(slow[0], "+20.0%") {
		t.Errorf("slowdowns = %v, want only BenchmarkSlow-8 at +20.0%%", slow)
	}
	if got := Slowdowns(oldSnap, newSnap, 25, nil); len(got) != 0 {
		t.Errorf("25%% gate flagged %v", got)
	}
}

// TestSlowdownsFailMetrics: -fail-metrics widens the gate to allocation
// metrics; a metric absent from either side is a reporting gap, not a
// regression.
func TestSlowdownsFailMetrics(t *testing.T) {
	oldSnap := &Snapshot{Benches: []Bench{
		{Name: "BenchmarkAlloc-8", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10, "B/op": 1000}},
		{Name: "BenchmarkNoMem-8", Metrics: map[string]float64{"ns/op": 100}},
	}}
	newSnap := &Snapshot{Benches: []Bench{
		// ns/op flat, allocs/op +50%, B/op +3%.
		{Name: "BenchmarkAlloc-8", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 15, "B/op": 1030}},
		// grew allocs/op, but the baseline never measured it.
		{Name: "BenchmarkNoMem-8", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 99}},
	}}
	slow := Slowdowns(oldSnap, newSnap, 5, []string{"allocs/op", "B/op"})
	if len(slow) != 1 || !strings.Contains(slow[0], "BenchmarkAlloc-8 allocs/op (+50.0%)") {
		t.Errorf("slowdowns = %v, want only BenchmarkAlloc-8 allocs/op", slow)
	}
	// The default gate still watches only ns/op, which did not move.
	if got := Slowdowns(oldSnap, newSnap, 5, []string{"ns/op"}); len(got) != 0 {
		t.Errorf("ns/op gate flagged %v", got)
	}
}

// TestBestOf: -best collapses `go test -count=N` repeats to each metric's
// minimum (metrics floor independently — the cpu-ns/op floor need not come
// from the run that won on ns/op), keeping first-seen order and leaving
// unique names untouched.
func TestBestOf(t *testing.T) {
	in := []Bench{
		{Name: "BenchmarkA-8", Iters: 10, Metrics: map[string]float64{"ns/op": 120}},
		{Name: "BenchmarkB-8", Iters: 5, Metrics: map[string]float64{"ns/op": 7}},
		{Name: "BenchmarkA-8", Iters: 10, Metrics: map[string]float64{"ns/op": 95, "allocs/op": 3}},
		{Name: "BenchmarkA-8", Iters: 10, Metrics: map[string]float64{"ns/op": 110, "allocs/op": 2}},
	}
	out := BestOf(in)
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2: %+v", len(out), out)
	}
	if out[0].Name != "BenchmarkA-8" || out[0].Metrics["ns/op"] != 95 || out[0].Metrics["allocs/op"] != 2 {
		t.Errorf("best A = %+v, want ns/op 95 and allocs/op 2", out[0])
	}
	if out[1].Name != "BenchmarkB-8" || out[1].Metrics["ns/op"] != 7 {
		t.Errorf("B = %+v", out[1])
	}
	if in[0].Metrics["allocs/op"] != 0 || len(in[0].Metrics) != 1 {
		t.Errorf("BestOf mutated its input: %+v", in[0])
	}
}
