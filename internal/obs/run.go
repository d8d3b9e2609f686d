package obs

import (
	"io"
	"time"

	"repro/internal/perfobs"
)

// Run is one run's record in the making, and the one way cachesim,
// paperfigs and each cachesimd job assemble what they record: one run ID,
// one phase clock, the optional pprof capture and the manifest. The tool
// fills in the manifest's own fields (configuration identity, outcome,
// rollups), Finish completes the rest, and ledger.FromManifest projects
// the result.
type Run struct {
	// Manifest is the run's record; its RunID is the run's ID.
	Manifest *Manifest

	start time.Time
	marks *perfobs.PhaseSampler
	capt  *perfobs.Capture
	rep   *Reporter
	done  bool
}

// StartRun opens the record of the run with the given ID. A non-empty
// profileDir starts a CPU+heap capture into profileDir/<id>/ at once, so
// start the run before the work it should see. When the capture cannot
// start, StartRun returns the error together with a run that records
// without one: the service runs such a job unprofiled, the CLIs give up.
func StartRun(id, profileDir string) (*Run, error) {
	m := NewManifest()
	m.RunID = id
	r := &Run{Manifest: m, start: time.Now(), marks: perfobs.NewPhaseSampler()}
	if profileDir == "" {
		return r, nil
	}
	c, err := perfobs.Start(profileDir, id)
	if err != nil {
		return r, err
	}
	r.capt = c
	return r, nil
}

// ID returns the run's ID.
func (r *Run) ID() string { return r.Manifest.RunID }

// Phase closes the open phase and opens the named one. This is the run's
// one phase clock: the manifest's phases and phase_allocs, the profile
// fingerprint's phase allocations and the Progress breakdown all read
// these marks.
func (r *Run) Phase(name string) { r.marks.Mark(name) }

// Progress starts a progress reporter on the run's phase clock, printing
// to w every interval; Finish stops it.
func (r *Run) Progress(w io.Writer, reg *Registry, interval time.Duration) {
	r.rep = &Reporter{w: w, reg: reg, interval: interval, marks: r.marks}
	r.rep.Start()
}

// Finish completes the record. It stops the reporter (which prints its
// final line and breakdown), closes the open phase and fills the
// manifest's wall time, Phases and PhaseAllocs and, given a registry, its
// cell tallies, latency and throughput. With a capture it stops and
// digests it into Profiles and Perf, and returns what it wrote. Later
// calls do nothing, so a deferred Finish releases the profiler on early
// error returns.
func (r *Run) Finish(reg *Registry) (perfobs.Summary, error) {
	if r.done {
		return perfobs.Summary{}, nil
	}
	r.done = true
	if r.rep != nil {
		r.rep.Stop()
	}
	phases := r.marks.Finish()
	wall := time.Since(r.start)
	m := r.Manifest
	m.WallMs = wall.Milliseconds()
	if reg != nil {
		m.FillFromRegistry(reg, wall)
	}
	m.Phases, m.PhaseAllocs = phaseDurations(phases), phases
	if r.capt == nil {
		return perfobs.Summary{}, nil
	}
	sum, err := r.capt.Stop()
	if err != nil {
		return sum, err
	}
	fp, err := r.capt.Fingerprint(0)
	if err != nil {
		return sum, err
	}
	fp.PhaseAllocs = phases
	m.Perf = fp
	m.Profiles = []ManifestProfile{
		{Kind: "cpu", Path: sum.CPUPath, Bytes: sum.CPUBytes},
		{Kind: "heap", Path: sum.HeapPath, Bytes: sum.HeapBytes},
	}
	return sum, nil
}
