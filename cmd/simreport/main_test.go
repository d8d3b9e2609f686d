package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ledger"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture is the ledger shared with internal/ledger's tests: three cachesim
// runs of one config (with a 0.8% cycle drift) and one paperfigs run.
const fixture = "../../internal/ledger/testdata"

// runCmd runs simreport in process and returns (exit code, stdout, stderr).
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// checkGolden compares got against testdata/<name>.golden, rewriting it
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/simreport -update` to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestShowGolden pins the full terminal rendering of `show` for both a
// cachesim run (attribution, warmup, trends) and the paperfigs run.
func TestShowGolden(t *testing.T) {
	code, out, errb := runCmd(t, "show", "-ledger", fixture, "20260803T100000Z-33")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "show_cachesim", out)

	code, out, _ = runCmd(t, "show", "-ledger", fixture, "latest")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	checkGolden(t, "show_paperfigs", out)
}

// TestDiffGoldenJSON pins the machine-readable diff of the fixture's two
// newest cachesim runs, noise thresholds included.
func TestDiffGoldenJSON(t *testing.T) {
	code, out, errb := runCmd(t, "diff", "-ledger", fixture, "-json",
		"20260802T100000Z-22", "20260803T100000Z-33")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "diff_cachesim.json", out)
}

// TestListGolden pins the one-line-per-run listing.
func TestListGolden(t *testing.T) {
	code, out, errb := runCmd(t, "list", "-ledger", fixture)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "list", out)
}

func TestListFilters(t *testing.T) {
	code, out, _ := runCmd(t, "list", "-ledger", fixture, "-config", "a1b2", "-n", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Count(out, "cachesim") != 2 || strings.Contains(out, "paperfigs") {
		t.Errorf("filtered list:\n%s", out)
	}
}

func TestDiffTerminal(t *testing.T) {
	code, out, _ := runCmd(t, "diff", "-ledger", fixture,
		"20260802T100000Z-22", "20260803T100000Z-33")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"total_cycles", "cycle attribution", "load_miss_stall"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

// appendLedger seeds a temporary ledger from records, failing the test on
// error.
func appendLedger(t *testing.T, dir string, recs ...ledger.Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := ledger.Append(dir, r); err != nil {
			t.Fatal(err)
		}
	}
}

func baseRecord(id string, cycles int64) ledger.Record {
	return ledger.Record{
		RunID:       id,
		Tool:        "cachesim",
		ConfigHash:  "gate00aa11bb22cc",
		Outcome:     "ok",
		WallMs:      100,
		Cells:       ledger.Cells{Planned: 1, Done: 1},
		Refs:        10_000,
		TotalCycles: cycles,
		CPI:         float64(cycles) / 10_000,
	}
}

// TestGateEndToEnd is the CLI half of the acceptance criterion: against a
// clean two-run history a synthetic 10% cycle regression must exit 1, and
// an identical run must exit 0.
func TestGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	appendLedger(t, dir,
		baseRecord("20260805T100000Z-01", 15000),
		baseRecord("20260805T110000Z-02", 15000),
		baseRecord("20260805T120000Z-03", 16500)) // +10% injected regression

	code, out, errb := runCmd(t, "gate", "-ledger", dir)
	if code != 1 {
		t.Fatalf("regressed ledger: exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "gate: FAIL") || !strings.Contains(out, "total_cycles") {
		t.Errorf("gate output:\n%s", out)
	}

	clean := t.TempDir()
	appendLedger(t, clean,
		baseRecord("20260805T100000Z-01", 15000),
		baseRecord("20260805T110000Z-02", 15000))
	code, out, _ = runCmd(t, "gate", "-ledger", clean)
	if code != 0 || !strings.Contains(out, "gate: ok") {
		t.Errorf("clean ledger: exit %d\n%s", code, out)
	}

	// Records written when runs still ledgered a profile digest carry a
	// "perf" object. They load whole (the checksum covers the unchanged
	// payload), none counts as corrupt, and the gate reads all four.
	code, out, errb = runCmd(t, "gate", "-ledger", filepath.Join("testdata", "perf", "ledger.ndjson"))
	if code != 0 || errb != "" || !strings.Contains(out, "(3 prior run(s))") || !strings.Contains(out, "gate: ok") {
		t.Errorf("ledger with perf records: exit %d, stderr %q\n%s", code, errb, out)
	}
}

// TestGateSkipsFirstRun: a first ledgered run exits 0 with an explanation,
// so wiring the gate into CI does not fail the very first build.
func TestGateSkipsFirstRun(t *testing.T) {
	dir := t.TempDir()
	appendLedger(t, dir, baseRecord("20260805T100000Z-01", 15000))
	code, out, _ := runCmd(t, "gate", "-ledger", dir)
	if code != 0 || !strings.Contains(out, "skipped") {
		t.Errorf("first-run gate: exit %d\n%s", code, out)
	}
}

// TestGateToleranceFlag: the fixture's 0.8% drift passes the default gate
// and trips a 0.5% tolerance with noise widening effectively off.
func TestGateToleranceFlag(t *testing.T) {
	code, _, _ := runCmd(t, "gate", "-ledger", fixture, "-config", "a1b2c3d4e5f60718")
	if code != 0 {
		t.Errorf("default gate on fixture: exit %d", code)
	}
	code, out, _ := runCmd(t, "gate", "-ledger", fixture, "-config", "a1b2c3d4e5f60718",
		"-tolerance", "0.5", "-noise-mult", "0.0001")
	if code != 1 {
		t.Errorf("tight gate on fixture: exit %d\n%s", code, out)
	}
}

// TestGateConfigPrefix: -config accepts a unique hash prefix the way list
// does, and rejects an ambiguous one.
func TestGateConfigPrefix(t *testing.T) {
	code, out, _ := runCmd(t, "gate", "-ledger", fixture, "-config", "a1b2")
	if code != 0 || !strings.Contains(out, "a1b2c3d4e5f6") {
		t.Errorf("prefix gate: exit %d\n%s", code, out)
	}

	dir := t.TempDir()
	a, b := baseRecord("1", 1000), baseRecord("2", 1000)
	a.ConfigHash, b.ConfigHash = "abc111", "abc222"
	appendLedger(t, dir, a)
	appendLedger(t, dir, b)
	code, _, errb := runCmd(t, "gate", "-ledger", dir, "-config", "abc")
	if code != 2 || !strings.Contains(errb, "ambiguous") {
		t.Errorf("ambiguous prefix: exit %d, stderr %q", code, errb)
	}
}

func TestHTMLSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.html")
	code, _, errb := runCmd(t, "html", "-ledger", fixture, "-o", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	for _, want := range []string{"<!DOCTYPE html>", "a1b2c3d4e5f60718", "ffee998877665544", "polyline", "total_cycles"} {
		if !strings.Contains(html, want) {
			t.Errorf("html missing %q", want)
		}
	}
}

// TestUsageAndErrors: bad invocations exit 2 and never panic.
func TestUsageAndErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"show", "-ledger", os.DevNull + ".nope"},
		{"diff", "-ledger", fixture, "only-one-selector"},
		{"show", "-ledger", fixture, "no-such-run"},
		{"gate", "-ledger", fixture, "-config", "a1b2c3d4e5f60718", "-metrics", "bogus"},
	}
	for _, args := range cases {
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Errorf("simreport %v: exit %d, want 2", args, code)
		}
	}
	if code, _, _ := runCmd(t, "help"); code != 0 {
		t.Error("help: nonzero exit")
	}
}
