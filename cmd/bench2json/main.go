// bench2json converts `go test -bench -benchmem` text output into a stable
// JSON snapshot, and diffs two snapshots.
//
//	go test -run '^$' -bench . -benchmem . | bench2json -o BENCH_20260805.json
//	bench2json -diff BENCH_20260701.json BENCH_20260805.json
//
// The snapshot keeps every metric the benchmark reported (ns/op, B/op,
// allocs/op and custom b.ReportMetric units such as refs/s), so `make bench`
// runs taken weeks apart can be compared without re-running the baseline.
// Benchmark names are stored without the -GOMAXPROCS suffix. Diff output
// flags regressions: a positive ns/op delta means the new run is slower.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the on-disk format: the environment header `go test` prints,
// plus one entry per benchmark.
type Snapshot struct {
	GOOS    string  `json:"goos,omitempty"`
	GOARCH  string  `json:"goarch,omitempty"`
	Package string  `json:"pkg,omitempty"`
	CPU     string  `json:"cpu,omitempty"`
	Benches []Bench `json:"benchmarks"`
}

// Bench is one benchmark result line. Metrics maps unit → value, e.g.
// "ns/op" → 1.2e9, "allocs/op" → 42, "refs" → 98304.
type Bench struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "", "write JSON snapshot to this file (default stdout)")
	diff := flag.Bool("diff", false, "compare two snapshots: bench2json -diff OLD.json NEW.json")
	failOver := flag.Float64("fail-over", 0, "with -diff: exit 1 when a watched metric grew by more than this percent (0 = report only)")
	failMetrics := flag.String("fail-metrics", "ns/op", "with -diff -fail-over: comma-separated metrics the gate watches; growth is the bad direction (e.g. ns/op,allocs/op,B/op)")
	best := flag.Bool("best", false, "when a name repeats (go test -count=N), keep each metric's minimum across the repeats")
	flag.Parse()

	var err error
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench2json -diff [-fail-over PCT] [-fail-metrics ns/op,allocs/op] OLD.json NEW.json")
			os.Exit(2)
		}
		var watch []string
		for _, m := range strings.Split(*failMetrics, ",") {
			if m = strings.TrimSpace(m); m != "" {
				watch = append(watch, m)
			}
		}
		var slow []string
		slow, err = runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *failOver, watch)
		if err == nil && len(slow) > 0 {
			fmt.Fprintf(os.Stderr, "bench2json: %d benchmark metric(s) grew by more than %g%%: %s\n",
				len(slow), *failOver, strings.Join(slow, ", "))
			os.Exit(1)
		}
	} else {
		err = runConvert(os.Stdin, *out, *best)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

func runConvert(in io.Reader, out string, best bool) error {
	snap, err := Parse(in)
	if err != nil {
		return err
	}
	if len(snap.Benches) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin (pipe `go test -bench` output in)")
	}
	if best {
		snap.Benches = BestOf(snap.Benches)
	}
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmarks to %s\n", len(snap.Benches), out)
	return nil
}

// BestOf collapses repeated benchmark names (as produced by `go test
// -count=N` or repeated sub-benchmark runs) to the element-wise minimum of
// each metric, preserving first-seen order. The minimum is the noise-robust
// statistic for a gate: scheduler or cache interference only ever inflates
// a sample, never deflates it — and taking it per metric means every
// watched metric gets its own floor rather than riding along with whichever
// run happened to win on ns/op.
func BestOf(benches []Bench) []Bench {
	idx := map[string]int{}
	var out []Bench
	for _, b := range benches {
		i, seen := idx[b.Name]
		if !seen {
			idx[b.Name] = len(out)
			merged := b
			merged.Metrics = make(map[string]float64, len(b.Metrics))
			for unit, v := range b.Metrics {
				merged.Metrics[unit] = v
			}
			out = append(out, merged)
			continue
		}
		for unit, v := range b.Metrics {
			if ov, ok := out[i].Metrics[unit]; !ok || v < ov {
				out[i].Metrics[unit] = v
			}
		}
	}
	return out
}

// Parse reads `go test -bench` text output. Lines it does not recognise
// (PASS, ok, test logs) are skipped.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				snap.Benches = append(snap.Benches, b)
			}
		}
	}
	return snap, sc.Err()
}

// parseBenchLine parses e.g.
//
//	BenchmarkFigure3_1-8  5  230123456 ns/op  96 B/op  2 allocs/op  9.8e+04 refs
//
// dropping the -GOMAXPROCS suffix (-8) that go test appends when
// GOMAXPROCS > 1, so snapshots from machines of any width compare by name.
func parseBenchLine(line string) (Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Bench{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Bench{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Bench{}, false
		}
		b.Metrics[f[i+1]] = v
	}
	return b, true
}

func runDiff(w io.Writer, oldPath, newPath string, failOver float64, metrics []string) ([]string, error) {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return nil, err
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(w, DiffString(oldSnap, newSnap))
	if failOver <= 0 {
		return nil, nil
	}
	return Slowdowns(oldSnap, newSnap, failOver, metrics), nil
}

// Slowdowns lists each watched metric of the benchmarks present in both
// snapshots that grew by more than pct percent — the -fail-over gate.
// metrics nil or empty means ns/op. A benchmark missing a watched metric on
// either side never fails the gate (benchmarks without -benchmem have no
// allocs/op; that's a reporting gap, not a regression), and neither do
// benchmarks on one side only (a rename should show in the diff, not break
// CI).
func Slowdowns(oldSnap, newSnap *Snapshot, pct float64, metrics []string) []string {
	if len(metrics) == 0 {
		metrics = []string{"ns/op"}
	}
	oldBy := map[string]Bench{}
	for _, b := range oldSnap.Benches {
		oldBy[b.Name] = b
	}
	var slow []string
	for _, nb := range newSnap.Benches {
		ob, ok := oldBy[nb.Name]
		if !ok {
			continue
		}
		for _, unit := range metrics {
			ov, hasOld := ob.Metrics[unit]
			nv, hasNew := nb.Metrics[unit]
			if !hasOld || !hasNew || ov <= 0 {
				continue
			}
			if (nv-ov)/ov*100 > pct {
				slow = append(slow, fmt.Sprintf("%s %s (%+.1f%%)", nb.Name, unit, (nv-ov)/ov*100))
			}
		}
	}
	return slow
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// DiffString renders a per-benchmark comparison. ns/op always leads; the
// remaining metrics follow in name order. Benchmarks present on only one
// side are listed so renames don't silently vanish from the report.
func DiffString(oldSnap, newSnap *Snapshot) string {
	var sb strings.Builder
	oldBy := map[string]Bench{}
	for _, b := range oldSnap.Benches {
		oldBy[b.Name] = b
	}
	seen := map[string]bool{}
	for _, nb := range newSnap.Benches {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-32s (new benchmark)\n", nb.Name)
			continue
		}
		fmt.Fprintf(&sb, "%-32s", nb.Name)
		for _, unit := range metricOrder(nb.Metrics) {
			nv := nb.Metrics[unit]
			ov, has := ob.Metrics[unit]
			if !has || ov == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %s %+.1f%%", unit, (nv-ov)/ov*100)
		}
		sb.WriteByte('\n')
	}
	for _, ob := range oldSnap.Benches {
		if !seen[ob.Name] {
			fmt.Fprintf(&sb, "%-32s (removed)\n", ob.Name)
		}
	}
	return sb.String()
}

func metricOrder(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		if u != "ns/op" {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	if _, ok := m["ns/op"]; ok {
		units = append([]string{"ns/op"}, units...)
	}
	return units
}
