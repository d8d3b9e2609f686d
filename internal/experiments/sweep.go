package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/system"
)

// ExecOptions tunes how a suite executes its sweeps: worker count, retry
// budget, a whole-sweep deadline, and an optional checkpoint log that makes
// interrupted sweeps resumable. The zero value runs on GOMAXPROCS workers
// with no deadline and no checkpoint.
type ExecOptions struct {
	// Workers bounds sweep concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Retries grants each failing cell this many extra attempts.
	Retries int
	// SweepTimeout bounds one whole figure sweep.
	SweepTimeout time.Duration
	// Checkpoint, when set, records each completed cell and replays
	// completed cells on resume instead of recomputing them.
	Checkpoint *runner.Checkpoint
	// Metrics, when set, receives cell lifecycle events (counts, latency
	// histogram, in-flight gauge) and aggregate simulator throughput
	// (simulated references) from every sweep the suite runs. Nil keeps
	// all instrumentation out of the sweep entirely.
	Metrics *obs.Registry
	// Log, when set, carries the structured event stream: cell failures,
	// retries and checkpoint replays. Nil disables logging.
	Log *slog.Logger
	// SelfCheck, when set, runs every simulation cell in lockstep with the
	// differential oracle (internal/check): behavioural profiles, timing
	// replays and full-system cells all shadow their L1 caches and write
	// buffers. Divergences surface as permanent (never-retried) cell
	// errors. Checked cells produce bit-identical results to unchecked
	// ones, so checkpoint keys do not encode the option.
	SelfCheck *check.Options
	// Faults, when set, injects the plan's deterministic faults (forced
	// panics, delays, transient errors) around each cell, exercising the
	// runner's isolation, retry and checkpoint machinery end-to-end.
	Faults *faultinject.Plan
	// Trace, when set, arms the simtrace recorder inside every freshly
	// computed simulation cell: the cell output carries the warm-window
	// cycle attribution (aggregated into the Metrics registry under
	// obs.MAttribPrefix), and when the event ring is armed the first
	// completed cell's timeline is retained for Suite.EventTrace. Interval
	// windows are ignored here — replay cells compress hit runs into gaps
	// (see engine.ReplayTraced). Instrumented cells produce bit-identical
	// results, so checkpoint keys do not encode the option; cells replayed
	// from a checkpoint skip simulation and contribute no attribution.
	Trace *simtrace.Options
	// Explain, when set, arms the explainability recorder
	// (internal/explain) inside every behavioural pass and full-system
	// cell: 3C miss classification, reuse-distance histograms and
	// set-pressure heat. Counters and system cells carry the warm-window
	// report (aggregated into the Metrics registry under the explain_*
	// names); replay cells share their profile's single report rather
	// than repeating it per timing. Instrumented cells produce
	// bit-identical results, so checkpoint keys do not encode the option.
	Explain *explain.Options
}

// SetExec configures sweep execution. Call before running figures; the
// options apply to every subsequent sweep.
func (s *Suite) SetExec(opts ExecOptions) { s.exec = opts }

func (s *Suite) runnerOptions() runner.Options {
	onStart, onDone := obs.RunnerHooks(s.exec.Metrics, s.exec.Log)
	return runner.Options{
		Workers:      s.exec.Workers,
		Retries:      s.exec.Retries,
		SweepTimeout: s.exec.SweepTimeout,
		Checkpoint:   s.exec.Checkpoint,
		OnCellStart:  onStart,
		OnCellDone:   onDone,
		OnSweepDone:  obs.SweepDone(s.exec.Log),
	}
}

// cellOut is the checkpointable product of one sweep cell. JSON encoding
// round-trips float64 exactly (shortest-form encoding), so a figure
// aggregated from replayed checkpoint entries is byte-identical to one
// computed in a single uninterrupted run.
//
// Outputs hold cycles, never nanoseconds: execution time is warm cycles ×
// cycle time, computed at aggregation (geoExecCPR) with the expression
// system.Result.ExecTimeNs uses. A replay cell's output is thereby
// cycle-domain, and shared by every timing with its cycle-domain form.
type cellOut struct {
	CPR float64 `json:"cpr,omitempty"`
	// Warm holds the measured-window counters (timing fields populated
	// for replay/system cells, zero for pure behavioural cells).
	Warm system.Counters `json:"warm"`
	// Attrib is the warm-window cycle attribution, present only when
	// ExecOptions.Trace armed it (omitted otherwise, so checkpoint bytes
	// without instrumentation are unchanged).
	Attrib *simtrace.Attribution `json:"attrib,omitempty"`
	// Explain is the warm-window explainability report, present only when
	// ExecOptions.Explain armed it (same checkpoint-byte discipline as
	// Attrib) and only on counters/system cells — replay cells would
	// repeat their shared profile's report once per timing.
	Explain *explain.Report `json:"explain,omitempty"`
}

// cellEntry is a single-flight slot in the Suite's cell memo.
type cellEntry struct {
	done chan struct{} // closed when the computing cell returns
	out  cellOut
	ok   bool // the computation succeeded; only then is out memoized
}

// memoize wraps each cell so that the Suite computes every distinct cell
// once in its lifetime. Cells are identified by their runner key, which
// already names everything the output depends on (cell kind and version,
// trace fingerprint, scale and the configuration, whose timing a replay
// cell names by its cycle-domain form). It follows the
// profile cache's single-flight pattern: the first cell to need a key
// computes it and every other cell with that key, in the same sweep or a
// later one, waits for and reuses the result. A failed, cancelled or
// panicking computation is not memoized: the slot is dropped and the next
// attempt computes afresh. The memo is what lets Figure 4-2 reuse the
// direct-mapped cells SpeedSizeGrid(…, 1) already replayed.
//
// A memo hit returns the stored output without running the cell, so it
// adds nothing to the simulated-reference and attribution metrics; it
// counts in obs.MCellsMemoHits instead. An output computed while
// ExecOptions.SelfCheck, Trace or Explain was armed is reused as is, like
// the profile cache's profiles: options changed between sweeps apply to
// cells not yet computed.
func (s *Suite) memoize(cells []runner.Cell[cellOut]) []runner.Cell[cellOut] {
	var hits *obs.Counter
	if s.exec.Metrics != nil {
		hits = s.exec.Metrics.Counter(obs.MCellsMemoHits)
	}
	out := make([]runner.Cell[cellOut], len(cells))
	for i, c := range cells {
		run, key := c.Run, c.Key
		out[i] = runner.Cell[cellOut]{Key: key, Run: func(ctx context.Context) (cellOut, error) {
			for {
				s.mu.Lock()
				e, found := s.cells[key]
				if !found {
					e = &cellEntry{done: make(chan struct{})}
					s.cells[key] = e
				}
				s.mu.Unlock()
				if !found {
					return s.compute(ctx, key, e, run)
				}
				select {
				case <-e.done:
				case <-ctx.Done():
					return cellOut{}, ctx.Err()
				}
				if e.ok {
					if hits != nil {
						hits.Add(1)
					}
					return e.out, nil
				}
				// The computing cell failed; take its place.
			}
		}}
	}
	return out
}

// compute runs a memo slot's cell and publishes its output, dropping the
// slot instead when the cell fails or panics.
func (s *Suite) compute(ctx context.Context, key string, e *cellEntry, run func(context.Context) (cellOut, error)) (v cellOut, err error) {
	defer func() {
		if !e.ok {
			s.mu.Lock()
			delete(s.cells, key)
			s.mu.Unlock()
		}
		close(e.done)
	}()
	v, err = run(ctx)
	e.out, e.ok = v, err == nil
	return v, err
}

// cellRecorder builds the per-cell simtrace recorder, or nil when tracing
// is off. Interval windows are stripped: cells report attribution and
// events only.
func (s *Suite) cellRecorder() *simtrace.Recorder {
	if s.exec.Trace == nil {
		return nil
	}
	opts := *s.exec.Trace
	opts.IntervalRefs = 0
	return simtrace.Attach(&opts)
}

// offerEventTrace retains the first completed recorder with an armed event
// ring as the sweep's representative timeline.
func (s *Suite) offerEventTrace(rec *simtrace.Recorder) {
	if !rec.EventsOn() {
		return
	}
	s.evMu.Lock()
	if s.evRec == nil {
		s.evRec = rec
	}
	s.evMu.Unlock()
}

// EventTrace returns a representative timeline of the suite's sweeps: the
// recorder of the first freshly computed cell that completed with the
// event ring armed (which cell that is depends on worker scheduling), or
// nil when ExecOptions.Trace never armed events or every cell was replayed
// from a checkpoint.
func (s *Suite) EventTrace() *simtrace.Recorder {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	return s.evRec
}

// recordExplain aggregates one freshly computed explainability report into
// the metrics registry's explain_* counters. Called once per fresh
// behavioural pass and once per fresh full-system cell — never per replay
// cell, which shares its profile's already-counted report — so the rollup
// counts each simulation exactly once however many timings reuse it.
func (s *Suite) recordExplain(rep *explain.Report) {
	m := s.exec.Metrics
	if m == nil || rep == nil {
		return
	}
	c3 := rep.Total3C()
	m.Counter(obs.MExplainCells).Add(1)
	m.Counter(obs.MExplainCompulsory).Add(c3.Compulsory)
	m.Counter(obs.MExplainCapacity).Add(c3.Capacity)
	m.Counter(obs.MExplainConflict).Add(c3.Conflict)
}

// attribOut packages a finished recorder's warm-window attribution for the
// cell output and offers its event ring as the representative timeline.
func (s *Suite) attribOut(rec *simtrace.Recorder) *simtrace.Attribution {
	s.offerEventTrace(rec)
	if !rec.AttribOn() {
		return nil
	}
	a := rec.AttributionWarm()
	return &a
}

// traceFingerprint identifies trace i for checkpoint keys: a content hash
// over the name, warm boundary and every reference, so a checkpoint from a
// different trace set (or scale) never replays into this one.
func (s *Suite) traceFingerprint(i int) string {
	s.fpOnce.Do(func() {
		s.fps = make([]string, len(s.Traces))
		for k, t := range s.Traces {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%d|%d|", t.Name, t.WarmStart, len(t.Refs))
			var buf [8]byte
			for _, r := range t.Refs {
				buf[0] = byte(r.Addr)
				buf[1] = byte(r.Addr >> 8)
				buf[2] = byte(r.Addr >> 16)
				buf[3] = byte(r.Addr >> 24)
				buf[4] = r.PID
				buf[5] = byte(r.Kind)
				h.Write(buf[:6])
			}
			s.fps[k] = fmt.Sprintf("%s-%016x", t.Name, h.Sum64())
		}
	})
	return s.fps[i]
}

// replayCell builds the runner cell for one (organization × timing ×
// trace) unit: behavioural profile (cached, single-flight) plus timing
// replay. The cell is keyed on the timing's cycle-domain form, not the
// timing itself: a replay depends on nothing else (engine.CycleTiming), so
// every cycle time whose quantized memory timing agrees shares one replay
// through the cell memo. The result carries the warm-window counters. A
// cell in a lane group (g non-nil) takes its replay from the group's
// shared walk.
func (s *Suite) replayCell(i int, org engine.Org, tm engine.Timing, g *laneGroup) runner.Cell[cellOut] {
	ct, ctErr := tm.CycleDomain()
	key := runner.Key("replay/v2", s.traceFingerprint(i), s.Scale, org, ct)
	if ctErr == nil {
		g.add(ct, key)
	}
	return runner.Cell[cellOut]{
		Key: key,
		Run: func(ctx context.Context) (cellOut, error) {
			if ctErr != nil {
				return cellOut{}, ctErr
			}
			if err := ctx.Err(); err != nil {
				return cellOut{}, err
			}
			p, err := s.profile(i, org)
			if err != nil {
				return cellOut{}, err
			}
			if err := ctx.Err(); err != nil {
				return cellOut{}, err
			}
			if res, ok := g.lane(s, p, ct); ok {
				return cellOut{CPR: res.Warm.CyclesPerRef(), Warm: res.Warm}, nil
			}
			rec := s.cellRecorder()
			res, err := p.ReplayTraced(tm, s.exec.SelfCheck, rec)
			if err != nil {
				return cellOut{}, err
			}
			return cellOut{CPR: res.Warm.CyclesPerRef(), Warm: res.Warm, Attrib: s.attribOut(rec)}, nil
		},
	}
}

// countersCell builds the runner cell for the timing-independent
// behavioural statistics of one (organization × trace) unit.
func (s *Suite) countersCell(i int, org engine.Org) runner.Cell[cellOut] {
	return runner.Cell[cellOut]{
		Key: runner.Key("counters/v1", s.traceFingerprint(i), s.Scale, org),
		Run: func(ctx context.Context) (cellOut, error) {
			if err := ctx.Err(); err != nil {
				return cellOut{}, err
			}
			p, exp, err := s.profileExplained(i, org)
			if err != nil {
				return cellOut{}, err
			}
			return cellOut{Warm: p.WarmCounters(), Explain: exp}, nil
		},
	}
}

// systemCell builds the runner cell for one full single-phase simulation
// (multilevel hierarchies and other configurations the engine does not
// cover).
func (s *Suite) systemCell(i int, cfg system.Config) runner.Cell[cellOut] {
	return runner.Cell[cellOut]{
		Key: runner.Key("system/v1", s.traceFingerprint(i), s.Scale, cfg),
		Run: func(ctx context.Context) (cellOut, error) {
			if err := ctx.Err(); err != nil {
				return cellOut{}, err
			}
			cfg := cfg
			cfg.SelfCheck = s.exec.SelfCheck
			if s.exec.Trace != nil {
				opts := *s.exec.Trace
				opts.IntervalRefs = 0 // no per-cell window sink; see ExecOptions.Trace
				cfg.Trace = &opts
			}
			cfg.Explain = s.exec.Explain
			sys, err := system.New(cfg)
			if err != nil {
				return cellOut{}, err
			}
			res, err := sys.Run(s.Traces[i])
			if err != nil {
				return cellOut{}, err
			}
			var exp *explain.Report
			if sys.Explainer().On() {
				exp = sys.Explainer().ReportWarm()
				s.recordExplain(exp)
			}
			return cellOut{CPR: res.Warm.CyclesPerRef(), Warm: res.Warm,
				Attrib: s.attribOut(sys.Recorder()), Explain: exp}, nil
		},
	}
}

// runCells executes a sweep through the hardened runner and returns the
// cell outputs in input order, or a *runner.SweepError naming every failed
// or cancelled cell.
func (s *Suite) runCells(ctx context.Context, cells []runner.Cell[cellOut]) ([]cellOut, error) {
	cells = s.memoize(s.instrument(cells))
	// Fault wrappers go outermost so an injected panic or delay hits the
	// runner exactly as a real one would, outside all instrumentation.
	cells = faultinject.Wrap(s.exec.Faults, cells)
	return runner.Values(runner.Run(ctx, cells, s.runnerOptions()))
}

// instrument announces the sweep's cells to the registry and wraps each
// cell to count its simulated warm-window references — the aggregate
// throughput metric. Instrumentation stays at cell granularity: the wrapper
// runs once per cell, never inside the simulator's inner loop. No-op
// without a registry.
func (s *Suite) instrument(cells []runner.Cell[cellOut]) []runner.Cell[cellOut] {
	m := s.exec.Metrics
	if m == nil {
		return cells
	}
	m.Counter(obs.MCellsPlanned).Add(int64(len(cells)))
	refs := m.Counter(obs.MSimRefs)
	out := make([]runner.Cell[cellOut], len(cells))
	for i, c := range cells {
		run := c.Run
		out[i] = runner.Cell[cellOut]{Key: c.Key, Run: func(ctx context.Context) (cellOut, error) {
			v, err := run(ctx)
			if err == nil {
				refs.Add(v.Warm.Refs)
				if v.Attrib != nil {
					m.Counter(obs.MAttribCells).Add(1)
					for _, comp := range v.Attrib.Components() {
						m.Counter(obs.MAttribPrefix + comp.Name).Add(comp.Cycles)
					}
				}
			}
			return v, err
		}}
	}
	return out
}

// Fingerprints returns the per-trace content fingerprints the checkpoint
// keys embed, for run manifests: two runs with equal fingerprints swept the
// same stimulus.
func (s *Suite) Fingerprints() []string {
	out := make([]string, len(s.Traces))
	for i := range s.Traces {
		out[i] = s.traceFingerprint(i)
	}
	return out
}

// replayCellsFor appends the organization's replay cells: for each
// timing in order, one cell per trace. A trace's cells of one call form a
// lane group, which replays all their timings in one walk of the profile.
// While the checker or either recorder is armed, every cell replays on
// its own instead, so that each is checked or traced as itself.
func (s *Suite) replayCellsFor(cells []runner.Cell[cellOut], org engine.Org, tms ...engine.Timing) []runner.Cell[cellOut] {
	groups := s.laneGroups(len(tms))
	for _, tm := range tms {
		for i := range s.Traces {
			cells = append(cells, s.replayCell(i, org, tm, groups[i]))
		}
	}
	return cells
}

// laneGroups returns one lane group per trace for a replayCellsFor call
// over n timings, or nil groups, each cell on its own, when there is
// nothing to share or an instrument is armed.
func (s *Suite) laneGroups(n int) []*laneGroup {
	groups := make([]*laneGroup, len(s.Traces))
	if n > 1 && s.exec.SelfCheck == nil && s.exec.Trace == nil && s.exec.Explain == nil {
		for i := range groups {
			groups[i] = &laneGroup{}
		}
	}
	return groups
}

// laneGroup is one trace's replay cells for one organization within a
// sweep. The first of them to run replays, in one walk of the profile's
// events (engine.ReplayLanes), every timing of the group whose output is
// not yet settled (see settled), and each cell takes its own lane's
// result. Every cell still runs, and counts, exactly once: the group
// shares the walk, not the cells. A nil group is a cell on its own.
type laneGroup struct {
	cts  []engine.CycleTiming // distinct, in order of first appearance
	keys []string             // each timing's cell key

	mu     sync.Mutex
	walked bool
	res    map[engine.CycleTiming]system.Result
}

// add enrols a cell's cycle-domain timing in the group.
func (g *laneGroup) add(ct engine.CycleTiming, key string) {
	if g == nil || slices.Contains(g.cts, ct) {
		return
	}
	g.cts = append(g.cts, ct)
	g.keys = append(g.keys, key)
}

// lane returns the group walk's result for the timing, walking first if
// no cell of the group has yet. ok is false for a cell on its own, and
// when the walk has no lane for the timing (it failed, or the timing was
// settled when it ran): the cell then replays by itself.
func (g *laneGroup) lane(s *Suite, p *engine.Profile, ct engine.CycleTiming) (res system.Result, ok bool) {
	if g == nil {
		return system.Result{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.walked {
		g.walked = true
		var todo []engine.CycleTiming
		for k, c := range g.cts {
			if !s.settled(g.keys[k]) {
				todo = append(todo, c)
			}
		}
		if rs, err := p.ReplayLanes(todo); err == nil {
			g.res = make(map[engine.CycleTiming]system.Result, len(todo))
			for k, c := range todo {
				g.res[c] = rs[k]
			}
		}
	}
	res, ok = g.res[ct]
	return res, ok
}

// settled reports whether a cell's output is already known, so that no
// walk needs to compute it: the memo holds it, or the checkpoint log
// will replay it.
func (s *Suite) settled(key string) bool {
	s.mu.Lock()
	e, found := s.cells[key]
	s.mu.Unlock()
	if found {
		select {
		case <-e.done:
			if e.ok {
				return true
			}
		default:
		}
	}
	if cp := s.exec.Checkpoint; cp != nil {
		_, ok := cp.Lookup(key)
		return ok
	}
	return false
}

// counterCellsFor appends one counters cell per trace for the organization.
func (s *Suite) counterCellsFor(cells []runner.Cell[cellOut], org engine.Org) []runner.Cell[cellOut] {
	for i := range s.Traces {
		cells = append(cells, s.countersCell(i, org))
	}
	return cells
}
