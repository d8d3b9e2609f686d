package ledger

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/explain"
	"repro/internal/perfobs"
)

// MetricDef describes one comparable record metric: how to extract it and
// which direction is a regression. Get reports ok=false when the record
// never measured the metric (e.g. no -attrib, so no cycle total).
type MetricDef struct {
	Name string
	Get  func(Record) (float64, bool)
	// HigherIsWorse is true for cost metrics (cycles, CPI, latency, wall
	// time) and false for rate metrics (refs/s), where shrinking is the
	// regression.
	HigherIsWorse bool
	// Deterministic marks metrics that are bit-stable for a fixed
	// configuration (simulated cycles, CPI); only these gate by default,
	// because wall-clock metrics regress whenever the machine is busy.
	Deterministic bool
}

// Metrics is every comparable metric, in report order.
var Metrics = []MetricDef{
	{"total_cycles", func(r Record) (float64, bool) { return float64(r.TotalCycles), r.TotalCycles > 0 }, true, true},
	{"cpi", func(r Record) (float64, bool) { return r.CPI, r.CPI > 0 }, true, true},
	{"refs", func(r Record) (float64, bool) { return float64(r.Refs), r.Refs > 0 }, true, true},
	{"refs_per_sec", func(r Record) (float64, bool) { return r.RefsPerSec, r.RefsPerSec > 0 }, false, false},
	{"latency_p50_us", func(r Record) (float64, bool) { return float64(r.LatencyP50Us), r.LatencyP50Us > 0 }, true, false},
	{"latency_p95_us", func(r Record) (float64, bool) { return float64(r.LatencyP95Us), r.LatencyP95Us > 0 }, true, false},
	{"wall_ms", func(r Record) (float64, bool) { return float64(r.WallMs), r.WallMs > 0 }, true, false},
}

// DefaultGateMetrics are the metrics `gate` watches when none are named:
// the deterministic ones, so an idle-vs-busy CI machine cannot trip the
// gate.
func DefaultGateMetrics() []string {
	var names []string
	for _, d := range Metrics {
		if d.Deterministic {
			names = append(names, d.Name)
		}
	}
	return names
}

func metricByName(name string) (MetricDef, error) {
	for _, d := range Metrics {
		if d.Name == name {
			return d, nil
		}
	}
	known := make([]string, len(Metrics))
	for i, d := range Metrics {
		known[i] = d.Name
	}
	return MetricDef{}, fmt.Errorf("unknown metric %q (known: %v)", name, known)
}

// Delta is one metric compared between two runs. Pct is the signed change
// (positive = the value grew); Regression is direction-adjusted and
// threshold-tested: the metric moved in its bad direction by more than
// ThresholdPct, which is max(tolerance, noise multiple × NoisePct) — a
// metric that historically wobbles 4% between identical runs is not
// flagged for wobbling 4% again.
type Delta struct {
	Name         string  `json:"name"`
	Old          float64 `json:"old"`
	New          float64 `json:"new"`
	Pct          float64 `json:"pct"`
	NoisePct     float64 `json:"noise_pct"`
	ThresholdPct float64 `json:"threshold_pct"`
	Regression   bool    `json:"regression"`
}

// metricValues collects the metric over the records where it was measured,
// in record order.
func metricValues(def MetricDef, recs []Record) []float64 {
	var vals []float64
	for _, r := range recs {
		if v, ok := def.Get(r); ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// compare builds one Delta: the relative change, judged in the metric's
// bad direction under perfobs's noise rule. The noise is the metric's
// relative sample standard deviation over the history records.
func compare(def MetricDef, oldV, newV float64, history []Record, th perfobs.Thresholds) Delta {
	d := Delta{Name: def.Name, Old: oldV, New: newV, NoisePct: perfobs.RelNoisePct(metricValues(def, history))}
	if oldV != 0 {
		d.Pct = (newV - oldV) / math.Abs(oldV) * 100
	}
	worse := d.Pct
	if !def.HigherIsWorse {
		worse = -d.Pct
	}
	d.ThresholdPct, d.Regression = th.Judge(worse, d.NoisePct)
	return d
}

// Diff compares two runs metric by metric, plus their attribution rollups
// component by component. Metrics absent from either side are omitted.
type Diff struct {
	OldRun      string  `json:"old_run"`
	NewRun      string  `json:"new_run"`
	ConfigMatch bool    `json:"config_match"`
	Metrics     []Delta `json:"metrics"`
	Attribution []Delta `json:"attribution,omitempty"`
	// Explain is the 3C miss-class composition shift between the two runs,
	// in share points of total misses, under the same noise-aware thresholds
	// perfobs applies to profile function shares. Present when both runs
	// carried explain reports. Report-only, like Attribution: composition
	// shifts explain a regression, the totals decide it.
	Explain []perfobs.FuncDelta `json:"explain,omitempty"`
}

// Regressions returns the metric deltas flagged as regressions
// (attribution components never gate; they explain, the totals decide).
func (d Diff) Regressions() []Delta {
	var out []Delta
	for _, m := range d.Metrics {
		if m.Regression {
			out = append(out, m)
		}
	}
	return out
}

// ComputeDiff compares oldRec → newRec. history supplies the repeated-run
// variance for the noise-aware thresholds — typically every earlier record
// with newRec's config hash; it may be empty.
func ComputeDiff(oldRec, newRec Record, history []Record, th perfobs.Thresholds) Diff {
	d := Diff{
		OldRun:      oldRec.RunID,
		NewRun:      newRec.RunID,
		ConfigMatch: oldRec.ConfigHash == newRec.ConfigHash,
	}
	for _, def := range Metrics {
		oldV, okOld := def.Get(oldRec)
		newV, okNew := def.Get(newRec)
		if !okOld || !okNew {
			continue
		}
		d.Metrics = append(d.Metrics, compare(def, oldV, newV, history, th))
	}
	names := make(map[string]bool)
	for n := range oldRec.Attribution {
		names[n] = true
	}
	for n := range newRec.Attribution {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		ad := Delta{Name: n, Old: float64(oldRec.Attribution[n]), New: float64(newRec.Attribution[n])}
		if ad.Old != 0 {
			ad.Pct = (ad.New - ad.Old) / math.Abs(ad.Old) * 100
		}
		d.Attribution = append(d.Attribution, ad)
	}
	if oldRec.Explain != nil && newRec.Explain != nil {
		var hist [][]perfobs.FuncShare
		for _, r := range history {
			if s := threeCShares(r.Explain); s != nil {
				hist = append(hist, s)
			}
		}
		d.Explain = perfobs.DiffShares(
			threeCShares(oldRec.Explain), threeCShares(newRec.Explain),
			hist, perfobs.Thresholds{})
	}
	return d
}

// threeCShares flattens a record's 3C totals to a perfobs share table: each
// miss class as a percentage of the run's misses. Nil when the record has no
// report (or saw no misses — a composition of nothing is not comparable).
func threeCShares(rep *explain.Report) []perfobs.FuncShare {
	if rep == nil || rep.TotalMisses() == 0 {
		return nil
	}
	comp, cap3, conf := rep.Total3C().SharePct()
	return []perfobs.FuncShare{
		{Func: "compulsory", SharePct: comp},
		{Func: "capacity", SharePct: cap3},
		{Func: "conflict", SharePct: conf},
	}
}

// GateOptions configures a regression gate.
type GateOptions struct {
	// Metrics to gate on; empty means DefaultGateMetrics (the
	// deterministic set).
	Metrics []string
	perfobs.Thresholds
	// Baseline is "prev" (default: the run before the newest) or "median"
	// (per-metric median over the configuration's earlier history, robust
	// to a single outlier baseline run).
	Baseline string
}

// GateResult is a gate verdict: the evaluated deltas, the regressions
// among them, and whether the gate was vacuous for lack of history.
type GateResult struct {
	ConfigHash string  `json:"config_hash"`
	NewRun     string  `json:"new_run"`
	Baseline   string  `json:"baseline"`
	History    int     `json:"history"`
	Deltas     []Delta `json:"deltas"`
	Failures   []Delta `json:"failures,omitempty"`
	// Skipped marks a gate that could not compare anything: no earlier
	// run of the same configuration exists yet.
	Skipped bool `json:"skipped,omitempty"`
}

// Gate compares the newest run of a configuration against its baseline and
// reports any metric that regressed beyond its threshold. configHash ""
// gates the ledger's newest record against its own history. With no
// earlier run of the configuration the result is Skipped (a first run
// cannot regress).
func Gate(recs []Record, configHash string, opts GateOptions) (GateResult, error) {
	if len(recs) == 0 {
		return GateResult{}, fmt.Errorf("ledger is empty")
	}
	if configHash == "" {
		configHash = recs[len(recs)-1].ConfigHash
	}
	hist := ByConfig(recs, configHash)
	if len(hist) == 0 {
		return GateResult{}, fmt.Errorf("no runs with config hash %s", configHash)
	}
	res := GateResult{ConfigHash: configHash, NewRun: hist[len(hist)-1].RunID, History: len(hist) - 1}
	if len(hist) < 2 {
		res.Skipped = true
		res.Baseline = "none"
		return res, nil
	}
	newest, earlier := hist[len(hist)-1], hist[:len(hist)-1]
	names := opts.Metrics
	if len(names) == 0 {
		names = DefaultGateMetrics()
	}
	baseline := opts.Baseline
	if baseline == "" {
		baseline = "prev"
	}
	prev := earlier[len(earlier)-1]
	switch baseline {
	case "prev":
		res.Baseline = prev.RunID
	case "median":
		res.Baseline = fmt.Sprintf("median of %d runs", len(earlier))
	default:
		return GateResult{}, fmt.Errorf("unknown baseline %q (prev, median)", baseline)
	}
	for _, name := range names {
		def, err := metricByName(name)
		if err != nil {
			return GateResult{}, err
		}
		newV, okNew := def.Get(newest)
		if !okNew {
			continue
		}
		var oldV float64
		var okOld bool
		if baseline == "median" {
			oldV, okOld = medianOf(def, earlier)
		} else {
			oldV, okOld = def.Get(prev)
		}
		if !okOld {
			continue
		}
		d := compare(def, oldV, newV, earlier, opts.Thresholds)
		res.Deltas = append(res.Deltas, d)
		if d.Regression {
			res.Failures = append(res.Failures, d)
		}
	}
	return res, nil
}

// medianOf returns the median of the metric over the records where it was
// measured.
func medianOf(def MetricDef, recs []Record) (float64, bool) {
	vals := metricValues(def, recs)
	if len(vals) == 0 {
		return 0, false
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid], true
	}
	return (vals[mid-1] + vals[mid]) / 2, true
}
