package explain

// ThreeC is a compulsory/capacity/conflict miss breakdown.
type ThreeC struct {
	Compulsory int64 `json:"compulsory"`
	Capacity   int64 `json:"capacity"`
	Conflict   int64 `json:"conflict"`
}

// Total returns the classified miss count.
func (c ThreeC) Total() int64 { return c.Compulsory + c.Capacity + c.Conflict }

// Add returns the component-wise sum.
func (c ThreeC) Add(o ThreeC) ThreeC {
	return ThreeC{
		Compulsory: c.Compulsory + o.Compulsory,
		Capacity:   c.Capacity + o.Capacity,
		Conflict:   c.Conflict + o.Conflict,
	}
}

// Sub returns the component-wise difference.
func (c ThreeC) Sub(o ThreeC) ThreeC {
	return ThreeC{
		Compulsory: c.Compulsory - o.Compulsory,
		Capacity:   c.Capacity - o.Capacity,
		Conflict:   c.Conflict - o.Conflict,
	}
}

// SharePct returns each component as a percentage of the classified
// misses, zero-safe: a run with no misses has nothing to explain and
// reports 0/0/0 rather than NaN.
func (c ThreeC) SharePct() (compulsory, capacity, conflict float64) {
	t := c.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return 100 * float64(c.Compulsory) / float64(t),
		100 * float64(c.Capacity) / float64(t),
		100 * float64(c.Conflict) / float64(t)
}

// SideReport is one cache side's explainability summary over a window
// (whole run or warm-only).
type SideReport struct {
	Label  string `json:"label"` // "I", "D" or "U"
	Refs   int64  `json:"refs"`
	Misses int64  `json:"misses"`

	ThreeC ThreeC `json:"three_c"`
}

// MissRatio returns misses/refs, zero-safe.
func (s SideReport) MissRatio() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

// Report is a run's full explainability summary across cache sides.
type Report struct {
	Sides []SideReport `json:"sides"`
}

// Total3C sums the classification across sides.
func (r *Report) Total3C() ThreeC {
	var t ThreeC
	if r == nil {
		return t
	}
	for _, s := range r.Sides {
		t = t.Add(s.ThreeC)
	}
	return t
}

// TotalMisses sums observed misses across sides.
func (r *Report) TotalMisses() int64 {
	var t int64
	if r == nil {
		return t
	}
	for _, s := range r.Sides {
		t += s.Misses
	}
	return t
}

// TotalRefs sums observed references across sides.
func (r *Report) TotalRefs() int64 {
	var t int64
	if r == nil {
		return t
	}
	for _, s := range r.Sides {
		t += s.Refs
	}
	return t
}

// Side returns the side with the given label, or nil.
func (r *Report) Side(label string) *SideReport {
	if r == nil {
		return nil
	}
	for i := range r.Sides {
		if r.Sides[i].Label == label {
			return &r.Sides[i]
		}
	}
	return nil
}

// Report returns the whole-run summary.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	rep := &Report{}
	for _, p := range r.probes {
		rep.Sides = append(rep.Sides, p.report(probeSnap{}))
	}
	return rep
}

// ReportWarm returns the summary for the warm window only (everything
// after MarkWarm; the whole run if MarkWarm was never called).
func (r *Recorder) ReportWarm() *Report {
	if r == nil {
		return nil
	}
	rep := &Report{}
	for _, p := range r.probes {
		rep.Sides = append(rep.Sides, p.report(p.warm))
	}
	return rep
}

// report builds a side summary relative to a snapshot (zero value =
// whole run).
func (p *Probe) report(since probeSnap) SideReport {
	return SideReport{
		Label:  p.label,
		Refs:   p.refs - since.refs,
		Misses: p.misses - since.misses,
		ThreeC: p.c3.Sub(since.c3),
	}
}

// Merge folds another report into r side-by-side (matching labels),
// summing counters — how multi-trace runs aggregate per-trace reports
// into one manifest rollup.
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	for _, os := range o.Sides {
		s := r.Side(os.Label)
		if s == nil {
			r.Sides = append(r.Sides, os)
			continue
		}
		s.Refs += os.Refs
		s.Misses += os.Misses
		s.ThreeC = s.ThreeC.Add(os.ThreeC)
	}
}
