package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/perfobs"
)

// perfRecord builds a profiled cachesim record: heap shares given as
// func → percentage points, with values scaled off a 10 MiB total.
func perfRecord(id string, heap map[string]float64) ledger.Record {
	const total = 10 << 20
	fp := &perfobs.Fingerprint{AllocBytes: total}
	for fn, pct := range heap {
		fp.Heap = append(fp.Heap, perfobs.FuncShare{
			Func: fn, Value: int64(pct / 100 * total), SharePct: pct,
		})
	}
	fp.PhaseAllocs = []perfobs.PhaseAlloc{
		{Name: "generate", AllocBytes: total / 4, AllocObjects: 100},
		{Name: "simulate", AllocBytes: 3 * total / 4, AllocObjects: 300, GCCycles: 2},
	}
	rec := baseRecord(id, 15000)
	rec.Perf = fp
	return rec
}

// TestPerfGateSyntheticHotFunction is the acceptance criterion: against a
// stable two-run history, a run where a new function suddenly owns 30% of
// allocations must exit 1 and name it; an unchanged run must exit 0.
func TestPerfGateSyntheticHotFunction(t *testing.T) {
	stable := map[string]float64{"sim.Run": 60, "workload.Generate": 40}
	dir := t.TempDir()
	appendLedger(t, dir,
		perfRecord("20260805T100000Z-01", stable),
		perfRecord("20260805T110000Z-02", stable),
		perfRecord("20260805T120000Z-03", map[string]float64{
			"sim.Run": 42, "workload.Generate": 28, "debug.DumpEverything": 30,
		}))
	code, out, errb := runCmd(t, "perf", "-ledger", dir, "-gate")
	if code != 1 {
		t.Fatalf("hot-function ledger: exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "perf gate: FAIL") || !strings.Contains(out, "debug.DumpEverything") {
		t.Errorf("gate output:\n%s", out)
	}

	clean := t.TempDir()
	appendLedger(t, clean,
		perfRecord("20260805T100000Z-01", stable),
		perfRecord("20260805T110000Z-02", stable))
	code, out, _ = runCmd(t, "perf", "-ledger", clean, "-gate")
	if code != 0 || !strings.Contains(out, "perf gate: ok") {
		t.Errorf("clean ledger: exit %d\n%s", code, out)
	}
}

// TestPerfGateGrowthRegression: an existing function growing beyond
// tolerance flags, and -tolerance loosens the same gate.
func TestPerfGateGrowthRegression(t *testing.T) {
	dir := t.TempDir()
	appendLedger(t, dir,
		perfRecord("20260805T100000Z-01", map[string]float64{"sim.Run": 50, "workload.Generate": 50}),
		perfRecord("20260805T110000Z-02", map[string]float64{"sim.Run": 58, "workload.Generate": 42}))
	code, out, _ := runCmd(t, "perf", "-ledger", dir, "-gate")
	if code != 1 || !strings.Contains(out, "sim.Run") {
		t.Errorf("8-point growth: exit %d, want 1\n%s", code, out)
	}
	code, out, _ = runCmd(t, "perf", "-ledger", dir, "-gate", "-tolerance", "10")
	if code != 0 {
		t.Errorf("tolerance 10: exit %d, want 0\n%s", code, out)
	}
}

// TestPerfGateSkipsFirstProfiledRun: one profiled run exits 0 with an
// explanation, and interleaved unprofiled runs neither count as baselines
// nor break selection.
func TestPerfGateSkipsFirstProfiledRun(t *testing.T) {
	dir := t.TempDir()
	appendLedger(t, dir,
		baseRecord("20260805T090000Z-00", 15000), // unprofiled
		perfRecord("20260805T100000Z-01", map[string]float64{"sim.Run": 60}),
		baseRecord("20260805T110000Z-02", 15000)) // unprofiled, newest
	code, out, _ := runCmd(t, "perf", "-ledger", dir, "-gate")
	if code != 0 || !strings.Contains(out, "skipped") {
		t.Errorf("first profiled run: exit %d\n%s", code, out)
	}
}

// TestPerfGateEmptyLedgerErrors: no profiled runs at all is a usage error
// (exit 2), not a silent pass.
func TestPerfGateEmptyLedgerErrors(t *testing.T) {
	dir := t.TempDir()
	appendLedger(t, dir, baseRecord("20260805T100000Z-01", 15000))
	code, _, errb := runCmd(t, "perf", "-ledger", dir, "-gate")
	if code != 2 || !strings.Contains(errb, "no profiled runs") {
		t.Errorf("exit %d, stderr: %s", code, errb)
	}
}

// TestPerfShow renders the share tables and the per-phase allocation
// breakdown for the latest profiled run.
func TestPerfShow(t *testing.T) {
	dir := t.TempDir()
	appendLedger(t, dir,
		perfRecord("20260805T100000Z-01", map[string]float64{"sim.Run": 60, "workload.Generate": 40}),
		baseRecord("20260805T110000Z-02", 15000)) // latest is unprofiled
	code, out, errb := runCmd(t, "perf", "-ledger", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"20260805T100000Z-01", "allocation by function", "sim.Run", "allocation by phase", "simulate"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}
}

// TestPerfDiffJSON: the machine output round-trips as a perfobs.Diff.
func TestPerfDiffJSON(t *testing.T) {
	dir := t.TempDir()
	appendLedger(t, dir,
		perfRecord("20260805T100000Z-01", map[string]float64{"sim.Run": 50, "workload.Generate": 50}),
		perfRecord("20260805T110000Z-02", map[string]float64{"sim.Run": 70, "workload.Generate": 30}))
	code, out, errb := runCmd(t, "perf", "-ledger", dir, "-diff", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	var d perfobs.Diff
	if err := json.Unmarshal([]byte(out), &d); err != nil {
		t.Fatalf("diff JSON: %v\n%s", err, out)
	}
	if len(d.Heap) == 0 || !d.Heap[0].Regression {
		t.Errorf("expected sim.Run's 20-point growth flagged: %+v", d.Heap)
	}
}

// TestFlame captures a real heap profile and renders it as a call tree.
func TestFlame(t *testing.T) {
	dir := t.TempDir()
	capt, err := perfobs.Start(dir, "flame-test")
	if err != nil {
		t.Fatal(err)
	}
	sink = churn(1 << 20)
	if _, err := capt.Stop(); err != nil {
		t.Fatal(err)
	}
	heap := filepath.Join(dir, "flame-test", perfobs.HeapProfileName)
	code, out, errb := runCmd(t, "flame", heap)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "alloc_space flame") || !strings.Contains(out, "%") {
		t.Errorf("flame output:\n%s", out)
	}

	// A corrupt profile is a decode error, exit 2 with the typed reason.
	bad := filepath.Join(dir, "bad.pprof")
	if err := os.WriteFile(bad, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errb = runCmd(t, "flame", bad)
	if code != 2 || !strings.Contains(errb, "simreport:") {
		t.Errorf("corrupt profile: exit %d, stderr: %s", code, errb)
	}
}

var sink []byte

// churn allocates visibly so the heap profile has something to attribute.
func churn(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	return buf
}

// perfFixture is a four-run profiled history of one configuration: three
// stable runs (their spread is the noise evidence) and a newest run with a
// new hot allocator, a new hot CPU function and a grown CPU share.
const perfFixture = "testdata/perf"

// TestPerfDiffGoldenJSON pins the machine-readable fingerprint diff of the
// fixture's two newest profiled runs, noise-widened thresholds included.
func TestPerfDiffGoldenJSON(t *testing.T) {
	code, out, errb := runCmd(t, "perf", "-ledger", perfFixture, "-diff", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	checkGolden(t, "perf_diff.json", out)
}

// TestPerfGateGolden pins the gate's full text report and its verdict: the
// new hot allocator fails the heap-only default gate.
func TestPerfGateGolden(t *testing.T) {
	code, out, errb := runCmd(t, "perf", "-ledger", perfFixture, "-gate")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb)
	}
	checkGolden(t, "perf_gate", out)
}
