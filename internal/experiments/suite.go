// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns typed rows; the cmd/paperfigs
// binary renders them, the benchmark harness times them, and the
// integration tests assert the paper's qualitative claims against them.
//
// All numerical results are geometric means of warm-start runs over the
// eight Table 1 traces, exactly as in the paper. Behavioural profiles are
// cached per (organization × trace), so the cycle-time sweeps of Figures
// 3-2 through 4-5 reuse the expensive behavioural pass through the cheap
// timing replay — the same two-phase strategy the paper's simulation farm
// used.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultScale is the fraction of the paper's trace lengths used when the
// caller does not choose one. 0.25 keeps the full footprints (footprints
// never scale) while holding the complete figure suite to around a minute.
const DefaultScale = 0.25

// Standard design-space axes from the paper.
var (
	// TotalSizesKB: the two caches were varied together from 2 KB
	// through 2 MB each, so the total ranges from 4 KB to 4 MB.
	TotalSizesKB = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	// CycleTimesNs: the CPU/cache cycle time range of Section 3.
	CycleTimesNs = []int{20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80}
	// BlockSizesW: the block-size sweep of Section 5.
	BlockSizesW = []int{2, 4, 8, 16, 32, 64, 128}
	// LatenciesNs: Section 5 varies the uniform memory latency from a
	// very aggressive 100 ns to a very conservative 420 ns.
	LatenciesNs = []int{100, 180, 260, 340, 420}
	// TransferRates: four words per cycle down to one word per four.
	TransferRates = []mem.Rate{mem.Rate4PerCycle, mem.Rate2PerCycle, mem.Rate1PerCycle, mem.Rate1Per2, mem.Rate1Per4}
	// SetSizes: direct mapped through eight-way.
	SetSizes = []int{1, 2, 4, 8}
)

// Suite holds the generated traces, the profile cache and the cell memo.
// Both caches are safe for concurrent use and live as long as the Suite:
// sweep cells running on the worker pool share behavioural profiles
// through the profile cache, with single-flight construction so concurrent
// cells needing the same profile build it exactly once, and every distinct
// sweep cell's output is computed once and then served from the memo to
// any later sweep that needs it (see memoize).
type Suite struct {
	Scale  float64
	Traces []*trace.Trace

	exec ExecOptions

	mu       sync.Mutex
	profiles map[profileKey]*profileEntry
	cells    map[string]*cellEntry // by runner key

	fpOnce sync.Once
	fps    []string // per-trace checkpoint fingerprints

	// evMu guards evRec, the first freshly computed cell's recorder with an
	// armed event ring — the sweep's representative timeline, exported via
	// EventTrace.
	evMu  sync.Mutex
	evRec *simtrace.Recorder
}

// profileEntry is a single-flight slot in the profile cache.
type profileEntry struct {
	once sync.Once
	ok   bool // the build returned, with a profile or an error; false after a panic
	p    *engine.Profile
	// exp is the warm-window explainability report of the behavioural
	// pass, nil unless ExecOptions.Explain armed the recorder.
	exp *explain.Report
	err error
}

type profileKey struct {
	traceIdx   int
	sizeWords  int
	blockWords int
	fetchWords int
	assoc      int
	policy     cache.WritePolicy
	alloc      bool
	unified    bool
}

// NewSuite generates the eight Table 1 workloads at the given scale
// (DefaultScale if 0). A negative scale is an error.
func NewSuite(scale float64) (*Suite, error) {
	if scale == 0 {
		scale = DefaultScale
	}
	traces, err := workload.GenerateAll(scale)
	if err != nil {
		return nil, err
	}
	for _, t := range traces {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: generated trace %s: %w", t.Name, err)
		}
	}
	return newSuite(traces, scale), nil
}

// MustNewSuite is NewSuite that panics on error, for tests and benchmarks
// with known-good scales.
func MustNewSuite(scale float64) *Suite {
	s, err := NewSuite(scale)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSuiteWithTraces builds a suite over caller-provided traces (tests use
// tiny synthetic ones).
func NewSuiteWithTraces(traces []*trace.Trace) *Suite {
	return newSuite(traces, 1)
}

func newSuite(traces []*trace.Trace, scale float64) *Suite {
	return &Suite{
		Scale:    scale,
		Traces:   traces,
		profiles: make(map[profileKey]*profileEntry),
		cells:    make(map[string]*cellEntry),
	}
}

// l1Config builds the standard split-cache configuration for one side:
// direct-mapped random-replacement write-back with no fetch on write miss,
// the paper's base organization, at the given geometry.
func l1Config(sizeWords, blockWords, assoc int) cache.Config {
	return cache.Config{
		SizeWords:   sizeWords,
		BlockWords:  blockWords,
		Assoc:       assoc,
		Replacement: cache.Random,
		WritePolicy: cache.WriteBack,
		Seed:        1988,
	}
}

// orgFor returns the split I/D organization with the given total size in
// KB, block size in words and set size.
func orgFor(totalKB, blockWords, assoc int) engine.Org {
	perCacheWords := totalKB * 1024 / 4 / 2
	cfg := l1Config(perCacheWords, blockWords, assoc)
	return engine.Org{ICache: cfg, DCache: cfg}
}

// profile returns the cached behavioural profile of the organization
// against trace i, building it on first use. Safe for concurrent callers:
// the expensive behavioural pass runs exactly once per key, with
// contending cells blocking on the builder rather than duplicating it. A
// build error is cached like a profile; a panicked build is not.
func (s *Suite) profile(i int, org engine.Org) (*engine.Profile, error) {
	p, _, err := s.profileExplained(i, org)
	return p, err
}

// profileExplained is profile plus the behavioural pass's warm-window
// explainability report (nil unless ExecOptions.Explain is set). The
// report rides the same single-flight slot, so it exists exactly once per
// (organization × trace) however many replay cells share the profile.
func (s *Suite) profileExplained(i int, org engine.Org) (*engine.Profile, *explain.Report, error) {
	key := profileKey{
		traceIdx:   i,
		sizeWords:  org.DCache.SizeWords,
		blockWords: org.DCache.BlockWords,
		fetchWords: org.DCache.FetchWords,
		assoc:      org.DCache.Assoc,
		policy:     org.DCache.WritePolicy,
		alloc:      org.DCache.WriteAllocate,
		unified:    org.Unified,
	}
	for {
		s.mu.Lock()
		e, ok := s.profiles[key]
		if !ok {
			e = &profileEntry{}
			s.profiles[key] = e
		}
		s.mu.Unlock()
		e.once.Do(func() {
			// A panicking build drops the slot before the panic leaves
			// the Once, so callers waiting on it build afresh, as the
			// cell memo does.
			defer func() {
				if !e.ok {
					s.mu.Lock()
					delete(s.profiles, key)
					s.mu.Unlock()
				}
			}()
			if m := s.exec.Metrics; m != nil {
				m.Counter(obs.MProfilesBuilt).Add(1)
			}
			rec := explain.Attach(s.exec.Explain)
			p, err := engine.BuildProfileExplained(org, s.Traces[i], s.exec.SelfCheck, rec)
			if err != nil {
				e.err = fmt.Errorf("experiments: profiling %s against %s: %w",
					org.DCache.String(), s.Traces[i].Name, err)
				e.ok = true
				return
			}
			e.p = p
			if rec.On() {
				e.exp = rec.ReportWarm()
				s.recordExplain(e.exp)
			}
			e.ok = true
		})
		if e.ok {
			return e.p, e.exp, e.err
		}
		// The build panicked in another caller and dropped the slot.
	}
}

// ReplayWarm replays the organization at the timing against every trace
// and returns each trace's warm-window counters, in trace order. It runs
// the suite's replay cells, so profiles come from the profile cache and a
// replay whose cycle-domain timing the suite has already run comes from
// the cell memo. A trace's execution time is its Warm.Cycles × tm.CycleNs.
func (s *Suite) ReplayWarm(ctx context.Context, org engine.Org, tm engine.Timing) ([]system.Counters, error) {
	outs, err := s.runCells(ctx, s.replayCellsFor(nil, org, tm))
	if err != nil {
		return nil, err
	}
	warm := make([]system.Counters, len(outs))
	for i, o := range outs {
		warm[i] = o.Warm
	}
	return warm, nil
}

// geoExecCPR aggregates one trace-group of cell outputs, all at one cycle
// time, geometrically. Outputs arrive in trace order (the runner preserves
// input order), so the aggregation is deterministic regardless of
// completion order.
func geoExecCPR(outs []cellOut, cycleNs int) (execNs, cpr float64, err error) {
	execs := make([]float64, len(outs))
	cprs := make([]float64, len(outs))
	for i, o := range outs {
		execs[i] = execTimeNs(o.Warm, cycleNs)
		cprs[i] = o.CPR
	}
	if execNs, err = stats.GeoMean(execs); err != nil {
		return 0, 0, err
	}
	if cpr, err = stats.GeoMean(cprs); err != nil {
		return 0, 0, err
	}
	return execNs, cpr, nil
}

// execTimeNs is the measured window's execution time at the cycle time,
// the same expression as system.Result.ExecTimeNs.
func execTimeNs(warm system.Counters, cycleNs int) float64 {
	return system.Result{CycleNs: cycleNs, Warm: warm}.ExecTimeNs()
}

// baseTiming is the paper's base memory at the given cycle time with the
// standard four-entry write buffer.
func baseTiming(cycleNs int) engine.Timing {
	return engine.Timing{CycleNs: cycleNs, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
}

// Table1 regenerates the trace-description table from the synthesized
// workloads.
func (s *Suite) Table1() []trace.Summary {
	out := make([]trace.Summary, len(s.Traces))
	for i, t := range s.Traces {
		out[i] = trace.Summarize(t)
	}
	return out
}

// Table2 regenerates the memory access cycle count table directly from the
// memory model.
type Table2Row struct {
	CycleNs        int
	ReadCycles     int
	WriteCycles    int
	RecoveryCycles int
}

// Table2 evaluates the default memory at the paper's cycle times for
// four-word blocks.
func Table2() []Table2Row {
	cfg := mem.DefaultConfig()
	cycles := []int{20, 24, 28, 32, 36, 40, 48, 52, 60}
	out := make([]Table2Row, len(cycles))
	for i, cy := range cycles {
		tm := cfg.MustQuantize(cy)
		out[i] = Table2Row{
			CycleNs:        cy,
			ReadCycles:     tm.ReadCycles(4),
			WriteCycles:    tm.WriteBusyCycles(4),
			RecoveryCycles: tm.RecoveryCycles,
		}
	}
	return out
}

// SimulateSystem runs the full single-phase simulator for configurations
// the engine does not cover (multilevel hierarchies, early-continue fetch
// policies) through the sweep runner, aggregating geometrically over the
// suite's traces.
func (s *Suite) SimulateSystem(ctx context.Context, cfg system.Config) (execNs, cpr float64, err error) {
	cells := make([]runner.Cell[cellOut], 0, len(s.Traces))
	for i := range s.Traces {
		cells = append(cells, s.systemCell(i, cfg))
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return 0, 0, err
	}
	return geoExecCPR(outs, cfg.CycleNs)
}
