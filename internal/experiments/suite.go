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
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/runner"
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

	sumOnce   sync.Once
	summaries []trace.Summary // Table 1, computed once
}

// profileEntry is one slot of the profile cache. Its build group fills
// it: the slot is ready once the group's Once has run with g.ok set.
type profileEntry struct {
	g   *buildGroup
	p   *engine.Profile
	err error
}

// profileKey names a profile: the trace and the whole organization.
type profileKey struct {
	traceIdx int
	org      engine.Org
}

// buildGroup is the single-flight build of the profile slots one walk of
// a trace fills: a declared direct-mapped size family (see declareFamily)
// or one organization.
type buildGroup struct {
	once  sync.Once
	ok    bool // the build returned, with profiles or errors; false after a panic
	trace int
	orgs  []engine.Org
	slots []*profileEntry // slots[k] holds orgs[k]'s profile
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
	key := profileKey{traceIdx: i, org: org}
	for {
		s.mu.Lock()
		e, ok := s.profiles[key]
		if !ok {
			e = s.group(i, []engine.Org{org}).slots[0]
		}
		s.mu.Unlock()
		e.g.once.Do(func() { s.build(e.g) })
		if e.g.ok {
			return e.p, e.err
		}
		// The build panicked in another caller and dropped the slot.
	}
}

// group makes a build group of the organizations' slots for trace i that
// the cache does not hold yet. The caller holds s.mu.
func (s *Suite) group(i int, orgs []engine.Org) *buildGroup {
	g := &buildGroup{trace: i}
	for _, org := range orgs {
		key := profileKey{traceIdx: i, org: org}
		if _, ok := s.profiles[key]; ok {
			continue // built, or being built, already
		}
		e := &profileEntry{g: g}
		g.orgs = append(g.orgs, org)
		g.slots = append(g.slots, e)
		s.profiles[key] = e
	}
	return g
}

// build fills every slot of the group. A group of several slots is a size
// family and walks the trace once (engine.BuildFamily); a single
// organization takes the checked pass if the checker is armed. A family
// is never declared while it is armed, and options are set before any
// sweep runs (SetExec). A panicking build drops the
// group's slots before the panic leaves the Once, so callers waiting on
// it build afresh, as the cell memo does.
func (s *Suite) build(g *buildGroup) {
	defer func() {
		if !g.ok {
			s.mu.Lock()
			for k, e := range g.slots {
				if key := (profileKey{traceIdx: g.trace, org: g.orgs[k]}); s.profiles[key] == e {
					delete(s.profiles, key)
				}
			}
			s.mu.Unlock()
		}
	}()
	tr := s.Traces[g.trace]
	var ps []*engine.Profile
	var err error
	if len(g.slots) > 1 {
		ps, err = engine.BuildFamily(g.orgs, tr)
	} else {
		var p *engine.Profile
		if p, err = engine.BuildProfileChecked(g.orgs[0], tr, s.exec.SelfCheck); err == nil {
			ps = []*engine.Profile{p}
		}
	}
	bytes := 0
	for k, e := range g.slots {
		if err != nil {
			e.err = fmt.Errorf("experiments: profiling %s against %s: %w", g.orgs[k].DCache.String(), tr.Name, err)
			continue
		}
		e.p = ps[k]
		bytes += e.p.Bytes()
	}
	if m := s.exec.Metrics; m != nil {
		m.Counter(obs.MProfilesBuilt).Add(int64(len(g.slots)))
		m.Gauge(obs.MProfileCacheBytes).Add(int64(bytes))
	}
	g.ok = true
}

// declareFamily tells the profile cache that the organizations form a
// direct-mapped size family (engine.FamilyApplies): for each trace, the
// slots of those not yet in the cache form one build group, which the
// first cell to need one of their profiles fills in one walk. The figure
// code declares the family; the cache never guesses one. Nothing is
// declared when the organizations are no family, or when the checker is
// armed, since it needs every access of every configuration.
func (s *Suite) declareFamily(orgs []engine.Org) {
	if len(orgs) < 2 || !engine.FamilyApplies(orgs, s.exec.SelfCheck) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.Traces {
		s.group(i, orgs)
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
// workloads. The summaries are computed on the first call; later calls
// return copies.
func (s *Suite) Table1() []trace.Summary {
	s.sumOnce.Do(func() {
		s.summaries = make([]trace.Summary, len(s.Traces))
		for i, t := range s.Traces {
			s.summaries[i] = trace.Summarize(t)
		}
	})
	return append([]trace.Summary(nil), s.summaries...)
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
