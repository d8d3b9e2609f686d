package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/perfobs"
)

// Reporter prints periodic progress/ETA lines for a running sweep by
// polling the registry's standard metrics, and renders a final per-phase
// wall-time breakdown on Stop. It keeps no phase list of its own: the
// breakdown reads a phase clock (perfobs.PhaseSampler), the reporter's own
// or, under Run.Progress, the run's, so the printed phases are the
// manifest's. Safe for concurrent use with the sweep; the zero Clock uses
// the real time.
type Reporter struct {
	// Clock supplies the current time; tests inject a fake. Set before
	// Start; nil means time.Now.
	Clock func() time.Time

	w        io.Writer
	reg      *Registry
	interval time.Duration
	marks    *perfobs.PhaseSampler

	mu       sync.Mutex
	started  bool
	start    time.Time
	lastTick time.Time
	lastDone int64
	lastRefs int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewReporter builds a reporter writing to w at the given interval, with
// its own phase clock. It does nothing until Start.
func NewReporter(w io.Writer, reg *Registry, interval time.Duration) *Reporter {
	r := &Reporter{w: w, reg: reg, interval: interval, marks: perfobs.NewPhaseSampler()}
	r.marks.Clock = r.now
	return r
}

func (r *Reporter) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now()
}

// Start begins the periodic reporting goroutine. Calling Start twice is a
// no-op.
func (r *Reporter) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.start = r.now()
	r.lastTick = r.start
	stop := make(chan struct{})
	r.stop = stop
	r.mu.Unlock()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.tick()
			case <-stop:
				return
			}
		}
	}()
}

// Phase marks the start of a named phase (one figure, typically) on the
// reporter's phase clock. Wall time between marks is attributed to the
// earlier phase in the final breakdown.
func (r *Reporter) Phase(name string) {
	r.mu.Lock()
	if !r.started {
		// Phase before Start still records, anchored at the first mark.
		now := r.now()
		r.started, r.start, r.lastTick = true, now, now
	}
	r.mu.Unlock()
	r.marks.Mark(name)
}

// Stop halts the reporting goroutine, prints one final progress line and
// the per-phase wall-time breakdown. Safe to call once after Start.
func (r *Reporter) Stop() {
	r.mu.Lock()
	stopped := r.stop
	r.stop = nil
	r.mu.Unlock()
	if stopped != nil {
		close(stopped)
		r.wg.Wait()
	}
	r.tick()
	r.breakdown()
}

// tick emits one progress line. Split out (and clock-injected) so tests can
// drive it without the goroutine.
//
// Rates and the ETA count only freshly simulated cells (done + failed,
// less the Suite's in-process memo hits). Memoized cells — replayed from a
// checkpoint when a sweep or service job resumes, or served from the memo
// — land in a near-instant burst; folding them into the throughput
// estimate made a half-restored grid report a rate (and an ETA) off by the
// restored fraction. They still count toward the progress fraction, and the
// line calls them out so X/N doesn't silently mix the two.
func (r *Reporter) tick() {
	now := r.now()
	planned := r.reg.Counter(MCellsPlanned).Value()
	done := r.reg.Counter(MCellsDone).Value()
	replayed := r.reg.Counter(MCellsReplayed).Value()
	memoHits := r.reg.Counter(MCellsMemoHits).Value()
	failed := r.reg.Counter(MCellsFailed).Value()
	refs := r.reg.Counter(MSimRefs).Value()
	fresh := done - memoHits + failed
	finished := done + failed + replayed

	phase := r.marks.Current()
	if phase == "" {
		phase = "sweep"
	}
	r.mu.Lock()
	windowDt := now.Sub(r.lastTick).Seconds()
	windowFresh := fresh - r.lastDone
	windowRefs := refs - r.lastRefs
	totalDt := now.Sub(r.start).Seconds()
	r.lastTick, r.lastDone, r.lastRefs = now, fresh, refs
	r.mu.Unlock()

	// Windowed rates when the window saw fresh work; cumulative otherwise.
	cellRate := rate(windowFresh, windowDt)
	refRate := rate(windowRefs, windowDt)
	if windowFresh == 0 {
		cellRate = rate(fresh, totalDt)
		refRate = rate(refs, totalDt)
	}

	line := fmt.Sprintf("[obs] %s: %d/%d cells", phase, finished, planned)
	if replayed > 0 {
		line += fmt.Sprintf(" (%d memoized)", replayed)
	}
	if memoHits > 0 {
		line += fmt.Sprintf(" (%d memo hits)", memoHits)
	}
	if failed > 0 {
		line += fmt.Sprintf(" (%d failed)", failed)
	}
	line += fmt.Sprintf(" | %.1f cells/s, %s refs/s", cellRate, fmtCount(int64(refRate)))
	if remaining := planned - finished; remaining > 0 && cellRate > 0 {
		eta := time.Duration(float64(remaining) / cellRate * float64(time.Second)).Round(time.Second)
		line += fmt.Sprintf(" | ETA %s", eta)
	}
	fmt.Fprintln(r.w, line)
}

// breakdown renders the per-phase wall-time table.
func (r *Reporter) breakdown() {
	phases := r.marks.Phases()
	if len(phases) == 0 {
		return
	}
	var total time.Duration
	for _, p := range phases {
		total += p.Wall
	}
	fmt.Fprintf(r.w, "[obs] wall-time breakdown (total %s):\n", total.Round(time.Millisecond))
	for _, p := range phases {
		fmt.Fprintf(r.w, "[obs]   %-14s %s\n", p.Name, p.Wall.Round(time.Millisecond))
	}
}

// PhaseDurations returns the recorded phases and their wall times as of
// now.
func (r *Reporter) PhaseDurations() []PhaseDuration {
	return phaseDurations(r.marks.Phases())
}

// phaseDurations projects a phase clock's phases to their wall times.
func phaseDurations(phases []perfobs.PhaseAlloc) []PhaseDuration {
	out := make([]PhaseDuration, len(phases))
	for i, p := range phases {
		out[i] = PhaseDuration{Name: p.Name, WallMs: p.Wall.Milliseconds()}
	}
	return out
}

// PhaseDuration is one phase's wall time, as recorded in the manifest.
type PhaseDuration struct {
	Name   string `json:"name"`
	WallMs int64  `json:"wall_ms"`
}

func rate(n int64, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	return float64(n) / dt
}

// fmtCount renders large counts compactly (12.3k, 4.5M).
func fmtCount(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
