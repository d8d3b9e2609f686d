package perfobs

import (
	"math"
	"sort"
)

// Thresholds is the one noise rule every run comparison applies, the
// ledger's metric deltas and the share diffs here alike: a movement in the
// bad direction flags when it exceeds max(Tolerance, NoiseMult × its
// observed run-to-run noise), where the noise is the sample standard
// deviation over earlier runs of the same configuration (see SampleSD).
// Ledger metrics move in relative percent. Shares move in absolute
// percentage points: a component going from 0.1% to 0.3% of a total
// tripled but does not matter; 30% → 36% does.
type Thresholds struct {
	// Tolerance is the minimum movement that flags regardless of noise:
	// percent for a relative change, points for a share. Zero means
	// DefaultThresholds.
	Tolerance float64
	// NoiseMult scales the observed noise.
	NoiseMult float64
	// MinSharePts is the share a component absent from the baseline must
	// reach before it flags as new; small newcomers are churn, not
	// regressions.
	MinSharePts float64
}

// DefaultThresholds: flag movements beyond 5 (percent or points), or
// beyond 3× observed noise when that is larger, and new shares arriving
// above 10 points.
func DefaultThresholds() Thresholds {
	return Thresholds{Tolerance: 5, NoiseMult: 3, MinSharePts: 10}
}

func (t Thresholds) orDefaults() Thresholds {
	d := DefaultThresholds()
	if t.Tolerance > 0 {
		d.Tolerance = t.Tolerance
	}
	if t.NoiseMult > 0 {
		d.NoiseMult = t.NoiseMult
	}
	if t.MinSharePts > 0 {
		d.MinSharePts = t.MinSharePts
	}
	return d
}

// Judge applies the rule to one movement: worse is the change in the bad
// direction (negative when it improved), noise the observed run-to-run
// noise in the same unit. Zero-valued fields fall back to
// DefaultThresholds.
func (t Thresholds) Judge(worse, noise float64) (threshold float64, regression bool) {
	t = t.orDefaults()
	threshold = math.Max(t.Tolerance, t.NoiseMult*noise)
	return threshold, worse > threshold
}

// SampleSD returns the sample standard deviation of vals — the run-to-run
// noise estimate behind every threshold — and their mean. The deviation is
// zero with fewer than two values: with no repeated-run evidence, only the
// tolerance applies.
func SampleSD(vals []float64) (sd, mean float64) {
	if len(vals) < 2 {
		return 0, 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(len(vals)-1)), mean
}

// RelNoisePct is SampleSD as a percentage of the mean, the noise of a
// metric compared by relative change. Zero when the mean is zero.
func RelNoisePct(vals []float64) float64 {
	sd, mean := SampleSD(vals)
	if mean == 0 {
		return 0
	}
	return 100 * math.Abs(sd/mean)
}

// FuncShare is one component's share of a composition: a function's share
// of a profile dimension, a miss class's share of the misses.
type FuncShare struct {
	Func string `json:"func"`
	// Value is the component's cost in the composition's unit.
	Value int64 `json:"value"`
	// SharePct is Value as a percentage of the composition total.
	SharePct float64 `json:"share_pct"`
}

// FuncDelta is one component's share compared between two compositions.
type FuncDelta struct {
	Func   string  `json:"func"`
	OldPct float64 `json:"old_pct"`
	NewPct float64 `json:"new_pct"`
	// DeltaPts is NewPct - OldPct in percentage points.
	DeltaPts float64 `json:"delta_pts"`
	// NoisePts is the component's share standard deviation over the
	// history compositions; ThresholdPts the effective flag threshold.
	NoisePts     float64 `json:"noise_pts"`
	ThresholdPts float64 `json:"threshold_pts"`
	// New marks a component present now but absent from the baseline.
	New bool `json:"new,omitempty"`
	// Regression marks the delta as beyond threshold in the bad direction.
	Regression bool `json:"regression,omitempty"`
}

// shareMap flattens a share table to func → share points.
func shareMap(shares []FuncShare) map[string]float64 {
	m := make(map[string]float64, len(shares))
	for _, s := range shares {
		m[s.Func] = s.SharePct
	}
	return m
}

// shareNoise computes each component's share standard deviation over the
// history tables. A table missing the component counts it as share 0 —
// slightly inflating noise for borderline components, which errs on the
// quiet side.
func shareNoise(history [][]FuncShare) map[string]float64 {
	if len(history) < 2 {
		return nil
	}
	maps := make([]map[string]float64, len(history))
	names := make(map[string]bool)
	for i, shares := range history {
		maps[i] = shareMap(shares)
		for name := range maps[i] {
			names[name] = true
		}
	}
	noise := make(map[string]float64, len(names))
	vals := make([]float64, len(maps))
	for name := range names {
		for i, m := range maps {
			vals[i] = m[name]
		}
		noise[name], _ = SampleSD(vals)
	}
	return noise
}

// DiffShares compares two named composition tables (share points per
// component) under the noise-aware thresholds, for any share-of-total
// composition, like the ledger's 3C miss-class shifts. history supplies
// the same composition from earlier runs (for noise); zero-valued th
// fields fall back to DefaultThresholds.
func DiffShares(oldS, newS []FuncShare, history [][]FuncShare, th Thresholds) []FuncDelta {
	th = th.orDefaults()
	oldM, newM := shareMap(oldS), shareMap(newS)
	noise := shareNoise(history)
	names := make([]string, 0, len(oldM)+len(newM))
	seen := make(map[string]bool, len(oldM)+len(newM))
	for _, s := range newS {
		if !seen[s.Func] {
			seen[s.Func] = true
			names = append(names, s.Func)
		}
	}
	for _, s := range oldS {
		if !seen[s.Func] {
			seen[s.Func] = true
			names = append(names, s.Func)
		}
	}
	var out []FuncDelta
	for _, name := range names {
		oldPct, inOld := oldM[name]
		newPct := newM[name]
		fd := FuncDelta{
			Func:     name,
			OldPct:   oldPct,
			NewPct:   newPct,
			DeltaPts: newPct - oldPct,
			NoisePts: noise[name],
			New:      !inOld,
		}
		if fd.New {
			// A component the baseline never saw: flag when it arrives hot.
			fd.ThresholdPts = th.MinSharePts
			fd.Regression = newPct >= th.MinSharePts
		} else {
			fd.ThresholdPts, fd.Regression = th.Judge(fd.DeltaPts, fd.NoisePts)
		}
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NewPct != out[j].NewPct {
			return out[i].NewPct > out[j].NewPct
		}
		return out[i].Func < out[j].Func
	})
	return out
}
