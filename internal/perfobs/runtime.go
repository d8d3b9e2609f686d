package perfobs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// runtimeSamples are the runtime/metrics series the observatory reads. GC
// pauses moved from /gc/pauses:seconds to /sched/pauses/total/gc:seconds in
// go1.22; both are listed and whichever exists wins (the newer name is
// listed first, so it shadows the legacy one when both exist).
var runtimeSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// supportedNames is resolved once: the subset of runtimeSampleNames this
// runtime actually exports.
var (
	supportedOnce  sync.Once
	supportedNames []string
)

func resolveSupported() {
	all := metrics.All()
	known := make(map[string]bool, len(all))
	for _, d := range all {
		known[d.Name] = true
	}
	for _, name := range runtimeSampleNames {
		if known[name] {
			supportedNames = append(supportedNames, name)
		}
	}
}

// RuntimeStats is one point-in-time snapshot of the Go runtime's cost
// signals, in the units the telemetry layer exports.
type RuntimeStats struct {
	// HeapLiveBytes is live heap object memory; HeapGoalBytes the GC's
	// current heap-size target.
	HeapLiveBytes uint64 `json:"heap_live_bytes"`
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
	// GCCycles counts completed GC cycles since process start.
	GCCycles uint64 `json:"gc_cycles"`
	// AllocBytes and AllocObjects are cumulative totals since process start.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
	// GCPauseP50 and GCPauseMax summarize the stop-the-world pause
	// distribution since process start.
	GCPauseP50 time.Duration `json:"gc_pause_p50"`
	GCPauseMax time.Duration `json:"gc_pause_max"`
	// SchedLatencyP95 is the 95th percentile of goroutine scheduling
	// latency since process start.
	SchedLatencyP95 time.Duration `json:"sched_latency_p95"`
}

// ReadRuntimeStats snapshots the runtime cost signals. Safe for concurrent
// use; each call reads fresh values.
func ReadRuntimeStats() RuntimeStats {
	supportedOnce.Do(resolveSupported)
	samples := make([]metrics.Sample, len(supportedNames))
	for i, name := range supportedNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var st RuntimeStats
	var sawPauses bool
	for _, s := range samples {
		switch s.Name {
		case "/memory/classes/heap/objects:bytes":
			st.HeapLiveBytes = kindUint(s.Value)
		case "/gc/heap/goal:bytes":
			st.HeapGoalBytes = kindUint(s.Value)
		case "/gc/cycles/total:gc-cycles":
			st.GCCycles = kindUint(s.Value)
		case "/gc/heap/allocs:bytes":
			st.AllocBytes = kindUint(s.Value)
		case "/gc/heap/allocs:objects":
			st.AllocObjects = kindUint(s.Value)
		case "/sched/pauses/total/gc:seconds", "/gc/pauses:seconds":
			if sawPauses {
				continue
			}
			sawPauses = true
			if h := s.Value.Float64Histogram(); h != nil {
				st.GCPauseP50 = histQuantile(h, 0.5)
				st.GCPauseMax = histMax(h)
			}
		case "/sched/latencies:seconds":
			if h := s.Value.Float64Histogram(); h != nil {
				st.SchedLatencyP95 = histQuantile(h, 0.95)
			}
		}
	}
	return st
}

func kindUint(v metrics.Value) uint64 {
	if v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// histQuantile returns the q-quantile upper bound of a runtime seconds
// histogram as a duration. Zero for an empty histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= want {
			// Buckets[i+1] is bucket i's upper bound; the last bucket's can
			// be +Inf, in which case its (finite) lower bound stands in.
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = h.Buckets[i]
			}
			return secondsToDuration(ub)
		}
	}
	return 0
}

// histMax returns the upper bound of the highest non-empty bucket.
func histMax(h *metrics.Float64Histogram) time.Duration {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 {
			continue
		}
		ub := h.Buckets[i+1]
		if math.IsInf(ub, 1) {
			ub = h.Buckets[i]
		}
		return secondsToDuration(ub)
	}
	return 0
}

func secondsToDuration(s float64) time.Duration {
	if math.IsInf(s, 0) || math.IsNaN(s) || s < 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// PhaseAlloc is one run phase: its wall time and what the process
// allocated between the phase's start mark and the next mark (or Finish).
type PhaseAlloc struct {
	Name         string `json:"name"`
	AllocBytes   int64  `json:"alloc_bytes"`
	AllocObjects int64  `json:"alloc_objects"`
	GCCycles     int64  `json:"gc_cycles"`
	// Wall is the phase's wall time. Records carry it in their own
	// phases list (obs.PhaseDuration), so it is not encoded here.
	Wall time.Duration `json:"-"`
}

// PhaseSampler is a run's phase clock: each mark closes the open phase,
// timing it and attributing the allocation totals runtime/metrics moved by
// since its mark. Process-wide, not goroutine-scoped: concurrent work
// during a phase lands in that phase's delta. Safe for concurrent use.
type PhaseSampler struct {
	// Clock supplies wall time; tests inject a fake. Set before the first
	// mark; nil means time.Now.
	Clock func() time.Time

	mu       sync.Mutex
	cur      string
	curStart time.Time
	last     RuntimeStats
	phases   []PhaseAlloc
}

// NewPhaseSampler starts a sampler with no open phase.
func NewPhaseSampler() *PhaseSampler { return &PhaseSampler{} }

func (s *PhaseSampler) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// Mark closes the open phase and opens a new one.
func (s *PhaseSampler) Mark(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now, st := s.now(), ReadRuntimeStats()
	s.phases = s.withOpen(s.phases, now, st)
	s.cur, s.curStart, s.last = name, now, st
}

// Current returns the open phase's name, "" when none is open.
func (s *PhaseSampler) Current() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Phases returns every phase so far in mark order, the open one measured
// up to now, and leaves the open phase running.
func (s *PhaseSampler) Phases() []PhaseAlloc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.upToNow(s.phases[:len(s.phases):len(s.phases)])
}

// Finish closes the open phase and returns every phase in mark order.
// Further marks start a fresh sequence.
func (s *PhaseSampler) Finish() []PhaseAlloc {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.upToNow(s.phases)
	s.phases, s.cur = nil, ""
	return out
}

// upToNow closes the open phase onto out as of now. A sampler with no
// open phase reads neither the clock nor the runtime.
func (s *PhaseSampler) upToNow(out []PhaseAlloc) []PhaseAlloc {
	if s.cur == "" {
		return out
	}
	return s.withOpen(out, s.now(), ReadRuntimeStats())
}

// withOpen appends the open phase, closed at (now, st), to out.
func (s *PhaseSampler) withOpen(out []PhaseAlloc, now time.Time, st RuntimeStats) []PhaseAlloc {
	if s.cur == "" {
		return out
	}
	return append(out, PhaseAlloc{
		Name:         s.cur,
		AllocBytes:   int64(st.AllocBytes - s.last.AllocBytes),
		AllocObjects: int64(st.AllocObjects - s.last.AllocObjects),
		GCCycles:     int64(st.GCCycles - s.last.GCCycles),
		Wall:         now.Sub(s.curStart),
	})
}
