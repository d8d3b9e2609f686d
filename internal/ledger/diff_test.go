package ledger

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfobs"
)

// TestComputeDiff: deltas carry signed percentages, attribution components
// diff by name, and identical runs produce zero deltas.
func TestComputeDiff(t *testing.T) {
	oldRec := sampleRecord("run-old", 15000)
	newRec := sampleRecord("run-new", 16500) // +10% cycles

	d := ComputeDiff(oldRec, newRec, nil, perfobs.Thresholds{})
	if d.OldRun != "run-old" || d.NewRun != "run-new" || !d.ConfigMatch {
		t.Errorf("header = %+v", d)
	}
	byName := map[string]Delta{}
	for _, m := range d.Metrics {
		byName[m.Name] = m
	}
	tc := byName["total_cycles"]
	if tc.Old != 15000 || tc.New != 16500 {
		t.Errorf("total_cycles = %+v", tc)
	}
	if tc.Pct < 9.99 || tc.Pct > 10.01 {
		t.Errorf("total_cycles pct = %v, want ~10", tc.Pct)
	}
	if !tc.Regression {
		t.Error("a 10% cycle increase above the 5% default tolerance must flag")
	}
	if cpi := byName["cpi"]; !cpi.Regression {
		t.Errorf("cpi delta = %+v, want regression", cpi)
	}
	var att Delta
	for _, a := range d.Attribution {
		if a.Name == "base_issue" {
			att = a
		}
	}
	if att.Name == "" || att.Old != 14000 || att.New != 15500 {
		t.Errorf("attribution base_issue = %+v", att)
	}

	same := ComputeDiff(oldRec, oldRec, nil, perfobs.Thresholds{})
	if regs := same.Regressions(); len(regs) != 0 {
		t.Errorf("self-diff regressions = %+v", regs)
	}
}

// TestDiffDirectionality: a drop in refs/s is the regression direction for
// rate metrics; a rise is an improvement.
func TestDiffDirectionality(t *testing.T) {
	oldRec := sampleRecord("a", 15000)
	newRec := sampleRecord("b", 15000)
	newRec.RefsPerSec = oldRec.RefsPerSec * 0.5 // halved throughput
	d := ComputeDiff(oldRec, newRec, nil, perfobs.Thresholds{})
	var rps Delta
	for _, m := range d.Metrics {
		if m.Name == "refs_per_sec" {
			rps = m
		}
	}
	if !rps.Regression || rps.Pct >= 0 {
		t.Errorf("refs_per_sec delta = %+v, want negative pct flagged as regression", rps)
	}
}

// TestNoiseAwareThreshold: a metric that historically wobbles widens its
// own threshold, so run-to-run noise does not flag.
func TestNoiseAwareThreshold(t *testing.T) {
	// Wall time wobbling ±10% across history: 400, 360, 440.
	hist := []Record{sampleRecord("h1", 15000), sampleRecord("h2", 15000), sampleRecord("h3", 15000)}
	hist[0].WallMs, hist[1].WallMs, hist[2].WallMs = 400, 360, 440

	oldRec, newRec := hist[2], sampleRecord("new", 15000)
	newRec.WallMs = 480 // +9% over baseline, inside 3× observed noise

	d := ComputeDiff(oldRec, newRec, hist, perfobs.Thresholds{Tolerance: 5, NoiseMult: 3})
	var wall Delta
	for _, m := range d.Metrics {
		if m.Name == "wall_ms" {
			wall = m
		}
	}
	if wall.NoisePct <= 0 {
		t.Fatalf("noise = %v, want > 0 from wobbling history", wall.NoisePct)
	}
	if wall.ThresholdPct <= 5 {
		t.Errorf("threshold = %v, want widened beyond the 5%% tolerance", wall.ThresholdPct)
	}
	if wall.Regression {
		t.Errorf("wall delta %+v flagged despite being within noise", wall)
	}
	// With no noise history the same delta trips the bare tolerance.
	d2 := ComputeDiff(oldRec, newRec, nil, perfobs.Thresholds{Tolerance: 5, NoiseMult: 3})
	for _, m := range d2.Metrics {
		if m.Name == "wall_ms" && !m.Regression {
			t.Errorf("wall delta %+v not flagged without noise history", m)
		}
	}
}

// TestGateTripsOnInjectedRegression is the package-level half of the
// acceptance criterion: a synthetic 10% total-cycle regression against a
// clean two-run history must fail the gate.
func TestGateTripsOnInjectedRegression(t *testing.T) {
	recs := []Record{sampleRecord("base-1", 15000), sampleRecord("base-2", 15000)}
	bad := sampleRecord("regressed", 16500) // +10% cycles
	bad.CPI = 1.65
	recs = append(recs, bad)

	res, err := Gate(recs, "", GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped {
		t.Fatal("gate skipped despite two baseline runs")
	}
	if res.NewRun != "regressed" || res.Baseline != "base-2" {
		t.Errorf("gate compared %s vs %s", res.NewRun, res.Baseline)
	}
	if len(res.Failures) == 0 {
		t.Fatal("injected 10% cycle regression did not trip the gate")
	}
	names := make([]string, len(res.Failures))
	for i, f := range res.Failures {
		names[i] = f.Name
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "total_cycles") || !strings.Contains(joined, "cpi") {
		t.Errorf("failures = %s, want total_cycles and cpi", joined)
	}
}

// TestGateCleanAndSkipped: identical runs pass; a first run has nothing to
// compare and skips.
func TestGateCleanAndSkipped(t *testing.T) {
	recs := []Record{sampleRecord("r1", 15000), sampleRecord("r2", 15000)}
	res, err := Gate(recs, "", GateOptions{Thresholds: perfobs.Thresholds{Tolerance: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped || len(res.Failures) != 0 {
		t.Errorf("identical runs: %+v", res)
	}
	if len(res.Deltas) == 0 {
		t.Error("gate evaluated no metrics")
	}

	solo, err := Gate(recs[:1], "", GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !solo.Skipped {
		t.Error("single-run history must skip, not pass or fail")
	}
}

// TestGateMedianBaseline: the median baseline shrugs off one outlier
// baseline run that would trip a prev-baseline gate in reverse.
func TestGateMedianBaseline(t *testing.T) {
	recs := []Record{
		sampleRecord("r1", 15000),
		sampleRecord("r2", 15000),
		sampleRecord("outlier", 12000), // one anomalously fast run
		sampleRecord("r4", 15000),
	}
	// Noise widening is disabled (tiny NoiseMult) to isolate the baseline
	// choice: against "prev" (the outlier) the normal run looks 25% slower.
	th := perfobs.Thresholds{Tolerance: 5, NoiseMult: 0.0001}
	prev, err := Gate(recs, "", GateOptions{Baseline: "prev", Metrics: []string{"total_cycles"}, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Failures) == 0 {
		t.Error("prev baseline should flag against the outlier (that is its weakness)")
	}
	// Against the median of history it is indistinguishable.
	med, err := Gate(recs, "", GateOptions{Baseline: "median", Metrics: []string{"total_cycles"}, Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Failures) != 0 {
		t.Errorf("median baseline failures = %+v", med.Failures)
	}
	if !strings.Contains(med.Baseline, "median") {
		t.Errorf("baseline label = %q", med.Baseline)
	}
}

func TestGateErrors(t *testing.T) {
	recs := []Record{sampleRecord("r1", 15000), sampleRecord("r2", 15000)}
	if _, err := Gate(nil, "", GateOptions{}); err == nil {
		t.Error("empty ledger: want error")
	}
	if _, err := Gate(recs, "nope", GateOptions{}); err == nil {
		t.Error("unknown config hash: want error")
	}
	if _, err := Gate(recs, "", GateOptions{Metrics: []string{"bogus"}}); err == nil {
		t.Error("unknown metric: want error")
	}
	if _, err := Gate(recs, "", GateOptions{Baseline: "bogus"}); err == nil {
		t.Error("unknown baseline: want error")
	}
}

// TestGateOnFixture: the checked-in fixture's cachesim history (0.8% cycle
// drift) passes the default gate but trips a 0.5% tolerance — the knob
// works end to end on real file contents.
func TestGateOnFixture(t *testing.T) {
	recs, _, err := Read(filepath.Join("testdata", FileName))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Gate(recs, "a1b2c3d4e5f60718", GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Errorf("default gate on fixture failed: %+v", res.Failures)
	}
	tight, err := Gate(recs, "a1b2c3d4e5f60718", GateOptions{Thresholds: perfobs.Thresholds{Tolerance: 0.5, NoiseMult: 0.0001}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Failures) == 0 {
		t.Error("0.5% tolerance should flag the fixture's 0.8% cycle drift")
	}
}
