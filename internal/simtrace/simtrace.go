// Package simtrace is the in-run observability layer for the simulator
// core: an opt-in recorder threaded through the system simulator that
// decomposes where cycles go (attribution), samples windowed statistics
// every N references (intervals).
//
// The package is strictly passive: nothing in here influences simulated
// timing. A run whose Options arm nothing gets no recorder at all (Attach),
// and every hook the simulators call is a no-op on a nil *Recorder, so an
// uninstrumented run pays one inlined nil test per hook and is
// bit-identical to builds that predate the instrumentation.
//
// Conservation is the core contract. The simulators advance time couplet
// by couplet: each couplet costs one base issue cycle plus `extra` stall
// cycles. The recorder banks the base cycle in BaseIssue and carves the
// measured sub-intervals (memory wait, memory recovery, write-buffer full
// stalls, buffer-match waits, lower-level service) out of `extra` in a
// fixed order, clamping each carve to the cycles still unexplained; the
// remainder lands in the bucket of the couplet's critical reference
// (ifetch-miss stall, load-miss stall, or store cycles). Every cycle is
// therefore attributed exactly once and
//
//	sum(components) == Cycles
//
// holds by construction — the invariant the selfcheck machinery enforces.
package simtrace

import "fmt"

// Options selects which instruments a Recorder arms. The zero value arms
// nothing: Attach then returns no recorder, while New returns one that
// still accepts every call but records only what was asked for.
type Options struct {
	// Attrib enables cycle attribution.
	Attrib bool
	// IntervalRefs, when positive, emits a window record every that many
	// references.
	IntervalRefs int
}

// Any reports whether at least one instrument is armed.
func (o Options) Any() bool { return o.Attrib || o.IntervalRefs > 0 }

// RefKind classifies the reference whose completion closed a couplet.
type RefKind uint8

const (
	Ifetch RefKind = iota
	Load
	Store
)

// Recorder accumulates one run's instrumentation. Construct with New,
// thread through a simulator via the system configuration, read
// the results after the run. Not safe for concurrent use; a recorder
// belongs to exactly one run.
type Recorder struct {
	opts Options

	attrib    Attribution
	warm      Attribution
	warmTaken bool

	// Per-couplet scratch, reset by BeginCouplet.
	start     int64
	critKind  RefKind
	critComp  int64
	critSeen  bool
	memWait   int64
	memRec    int64
	bufFull   int64
	matched   bool
	levelOwn  []int64
	numLevels int

	win windowState
}

// New builds a recorder for one run.
func New(opts Options) *Recorder {
	r := &Recorder{opts: opts}
	if opts.IntervalRefs > 0 {
		r.win.init(opts.IntervalRefs)
	}
	return r
}

// Attach is the attach rule the simulators apply: a recorder for one run,
// or nil when opts is nil or arms nothing, so a disarmed run takes the
// identical code path as an uninstrumented one.
func Attach(opts *Options) *Recorder {
	if opts == nil || !opts.Any() {
		return nil
	}
	return New(*opts)
}

// On reports whether the recorder exists and arms at least one
// instrument. A core handed a recorder that is not On drops it, by the
// same rule as Attach.
func (r *Recorder) On() bool { return r != nil && r.opts.Any() }

// IntervalsOn reports whether interval windows are armed.
func (r *Recorder) IntervalsOn() bool { return r != nil && r.opts.IntervalRefs > 0 }

// BeginCouplet opens a couplet issued at cycle now, resetting the
// carving scratch.
func (r *Recorder) BeginCouplet(now int64) {
	if r == nil {
		return
	}
	r.start = now
	r.critSeen = false
	r.critComp = 0
	r.critKind = Ifetch
	r.memWait, r.memRec, r.bufFull = 0, 0, 0
	r.matched = false
	for i := range r.levelOwn {
		r.levelOwn[i] = 0
	}
}

// NoteRef records one serviced reference inside the open couplet: its
// kind and completion cycle. The reference with the latest completion
// (later calls win ties, so the data side of an I+D couplet) becomes the
// couplet's critical reference and receives the unexplained residual.
func (r *Recorder) NoteRef(kind RefKind, complete int64) {
	if r == nil {
		return
	}
	if !r.critSeen || complete >= r.critComp {
		r.critSeen = true
		r.critKind = kind
		r.critComp = complete
	}
}

// NoteFetch records the memory-unit wait observed across one downstream
// block fetch: wait is the unit's read-wait delta, recovery the part of
// it spent inside the previous operation's recovery tail, and matched
// whether the fetch first had to flush a matching buffered write (in
// which case the whole wait is attributed to the buffer match, not the
// memory).
func (r *Recorder) NoteFetch(wait, recovery int64, matched bool) {
	if r == nil {
		return
	}
	r.memWait += wait
	r.memRec += recovery
	if matched {
		r.matched = true
	}
}

// NoteBufFull records writer cycles lost to a full write buffer during
// the open couplet.
func (r *Recorder) NoteBufFull(stall int64) {
	if r != nil {
		r.bufFull += stall
	}
}

// NoteLevelService records the own service-cycle delta of lower cache
// level i (0 = L2) across one fetch: the level's request-to-data time
// minus the nested time spent below it.
func (r *Recorder) NoteLevelService(i int, own int64) {
	if r == nil {
		return
	}
	for len(r.levelOwn) <= i {
		r.levelOwn = append(r.levelOwn, 0)
	}
	if own > 0 {
		r.levelOwn[i] += own
	}
	if i+1 > r.numLevels {
		r.numLevels = i + 1
	}
}

// EndCouplet closes the couplet at its completion cycle and banks the
// attribution: one base cycle, the carved sub-intervals clamped to the
// stall cycles actually paid, and the residual into the critical
// reference's bucket.
func (r *Recorder) EndCouplet(comp int64) {
	if r != nil && r.opts.Attrib {
		r.endCouplet(comp)
	}
}

func (r *Recorder) endCouplet(comp int64) {
	rem := comp - r.start - 1
	carve := func(v int64) int64 {
		if v < 0 {
			v = 0
		}
		if v > rem {
			v = rem
		}
		rem -= v
		return v
	}
	a := &r.attrib
	a.BaseIssue++
	if r.matched {
		a.BufMatchWait += carve(r.memWait)
	} else {
		a.MemWait += carve(r.memWait - r.memRec)
		a.MemRecovery += carve(r.memRec)
	}
	a.BufFullStall += carve(r.bufFull)
	for i := 0; i < r.numLevels; i++ {
		for len(a.LevelService) <= i {
			a.LevelService = append(a.LevelService, 0)
		}
		a.LevelService[i] += carve(r.levelOwn[i])
	}
	switch r.critKind {
	case Store:
		a.StoreCycles += rem
	case Ifetch:
		a.IfetchMissStall += rem
	default:
		a.LoadMissStall += rem
	}
	a.Cycles = comp
}

// MarkWarm snapshots the attribution at the warm-start boundary, so warm
// and cold windows can be reported separately.
func (r *Recorder) MarkWarm() {
	if r == nil {
		return
	}
	r.warm = r.attrib.clone()
	r.warmTaken = true
}

// Attribution returns the whole-run attribution.
func (r *Recorder) Attribution() Attribution { return r.attrib.clone() }

// AttributionWarm returns the measured-window attribution: the whole run
// minus the snapshot taken at MarkWarm (the whole run when MarkWarm was
// never called, i.e. the trace has no warm boundary).
func (r *Recorder) AttributionWarm() Attribution {
	if !r.warmTaken {
		return r.attrib.clone()
	}
	return r.attrib.Sub(r.warm)
}

// CheckConservation verifies sum(components) == Cycles for the running
// attribution. Registered with the selfcheck invariant battery, it runs
// at every invariant interval and at Finish; consistent at any point
// between couplets because buckets and the cycle target update together
// in EndCouplet.
func (r *Recorder) CheckConservation() error {
	if r == nil || !r.opts.Attrib {
		return nil
	}
	return r.attrib.Check()
}

// Finish closes the run at its final cycle count: the last partial
// window is emitted from the final cumulative sample, and conservation
// is verified against the simulator's own cycle total — a cheap final
// guard even when the full selfcheck battery is off.
func (r *Recorder) Finish(s Sample, totalCycles int64) error {
	if r == nil {
		return nil
	}
	if r.opts.IntervalRefs > 0 {
		r.win.finish(s)
	}
	if !r.opts.Attrib {
		return nil
	}
	if r.attrib.Cycles != totalCycles {
		return fmt.Errorf("simtrace: attribution saw %d cycles, simulator counted %d",
			r.attrib.Cycles, totalCycles)
	}
	return r.attrib.Check()
}
