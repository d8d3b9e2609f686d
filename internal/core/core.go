// Package core implements the paper's primary contribution as a reusable
// API: evaluating cache design decisions by total execution time — cycle
// count × cycle time — rather than by time-independent metrics, and the
// derived design aids built on that footing (equal-performance cycle times,
// nanoseconds-per-doubling slopes, break-even associativity degradations,
// and performance-optimal block sizes).
//
// An Explorer is bound to a workload set; every Evaluate call answers "how
// long does this machine take to run these programs", geometric-mean
// aggregated as in the paper, and the comparison helpers interpolate
// between evaluations exactly as the paper interpolates between simulation
// grid points.
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
)

// DesignPoint is one machine in the design space.
type DesignPoint struct {
	// TotalKB is the combined capacity of the split I and D caches in
	// KB; each cache gets half.
	TotalKB int
	// BlockWords is the block size in 32-bit words (both caches).
	BlockWords int
	// Assoc is the set size; 1 = direct mapped.
	Assoc int
	// CycleNs is the CPU/cache cycle time.
	CycleNs int
	// Mem is the main memory timing; zero value means the paper's
	// default memory.
	Mem mem.Config
	// WriteBufDepth is the write buffer depth; 0 means the paper's four
	// entries (use NoWriteBuffer for a depth of zero).
	WriteBufDepth int
	// NoWriteBuffer forces an unbuffered system.
	NoWriteBuffer bool
}

// normalize fills defaults.
func (p DesignPoint) normalize() DesignPoint {
	if p.BlockWords == 0 {
		p.BlockWords = 4
	}
	if p.Assoc == 0 {
		p.Assoc = 1
	}
	if p.CycleNs == 0 {
		p.CycleNs = 40
	}
	if p.Mem == (mem.Config{}) {
		p.Mem = mem.DefaultConfig()
	}
	if p.WriteBufDepth == 0 && !p.NoWriteBuffer {
		p.WriteBufDepth = 4
	}
	return p
}

// org returns the cache organization of the point.
func (p DesignPoint) org() (engine.Org, error) {
	if p.TotalKB <= 0 {
		return engine.Org{}, fmt.Errorf("core: non-positive total size %d KB", p.TotalKB)
	}
	perCacheWords := p.TotalKB * 1024 / 4 / 2
	cfg := cache.Config{
		SizeWords:   perCacheWords,
		BlockWords:  p.BlockWords,
		Assoc:       p.Assoc,
		Replacement: cache.Random,
		WritePolicy: cache.WriteBack,
		Seed:        1988,
	}
	org := engine.Org{ICache: cfg, DCache: cfg}
	return org, org.Validate()
}

// Evaluation is the outcome of evaluating one design point.
type Evaluation struct {
	Point DesignPoint
	// ExecNs is the geometric-mean execution time of the measured
	// windows, in nanoseconds: the paper's figure of merit.
	ExecNs float64
	// CyclesPerRef is the geometric-mean cycle count per reference.
	CyclesPerRef float64
	// ReadMissRatio is the geometric-mean read miss ratio.
	ReadMissRatio float64
	// MissPenaltyCycles is the main-memory read time at this point's
	// block size and cycle time.
	MissPenaltyCycles int
}

// Explorer evaluates design points against a fixed workload set. It is a
// view over an experiments.Suite built on its traces: Evaluate runs the
// Suite's replay cells, so a behavioural profile is built once per
// (organization × trace), however many callers need it at once, and a
// replay runs once per (organization × cycle-domain timing × trace), since
// main memory's times quantize to whole cycles (engine.CycleTiming). Every
// later evaluation needing that replay, at any cycle time with the same
// quantized memory timing, is served from the Suite's cell memo. Profiles
// and memoized replays are kept for the Explorer's life, so its memory
// grows with the organizations and distinct timings it has evaluated.
// Safe for concurrent use.
type Explorer struct {
	suite *experiments.Suite
}

// NewExplorer builds an explorer over the given traces (at least one).
func NewExplorer(traces []*trace.Trace) (*Explorer, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: explorer needs at least one trace")
	}
	for _, t := range traces {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return &Explorer{suite: experiments.NewSuiteWithTraces(traces)}, nil
}

// Traces returns the workload set.
func (e *Explorer) Traces() []*trace.Trace { return e.suite.Traces }

// Evaluate runs the design point over every trace and aggregates.
func (e *Explorer) Evaluate(point DesignPoint) (Evaluation, error) {
	p := point.normalize()
	org, err := p.org()
	if err != nil {
		return Evaluation{}, err
	}
	depth := p.WriteBufDepth
	if p.NoWriteBuffer {
		depth = 0
	}
	tm := engine.Timing{CycleNs: p.CycleNs, Mem: p.Mem, WriteBufDepth: depth}
	warm, err := e.suite.ReplayWarm(context.Background(), org, tm)
	if err != nil {
		return Evaluation{}, err
	}
	execs := make([]float64, len(warm))
	cprs := make([]float64, len(warm))
	miss := make([]float64, len(warm))
	for i, w := range warm {
		execs[i] = system.Result{CycleNs: p.CycleNs, Warm: w}.ExecTimeNs()
		cprs[i] = w.CyclesPerRef()
		m := w.ReadMissRatio()
		if m <= 0 {
			m = 1e-9
		}
		miss[i] = m
	}
	qtm, err := p.Mem.Quantize(p.CycleNs)
	if err != nil {
		return Evaluation{}, err
	}
	out := Evaluation{Point: p, MissPenaltyCycles: qtm.ReadCycles(p.BlockWords)}
	if out.ExecNs, err = stats.GeoMean(execs); err != nil {
		return Evaluation{}, err
	}
	if out.CyclesPerRef, err = stats.GeoMean(cprs); err != nil {
		return Evaluation{}, err
	}
	if out.ReadMissRatio, err = stats.GeoMean(miss); err != nil {
		return Evaluation{}, err
	}
	return out, nil
}

// Speedup returns how many times faster a is than b (execution-time ratio
// b/a).
func (e *Explorer) Speedup(a, b DesignPoint) (float64, error) {
	ea, err := e.Evaluate(a)
	if err != nil {
		return 0, err
	}
	eb, err := e.Evaluate(b)
	if err != nil {
		return 0, err
	}
	return eb.ExecNs / ea.ExecNs, nil
}

// defaultCycleGrid is the interpolation support for the equal-performance
// helpers, the paper's 20–80 ns sweep.
var defaultCycleGrid = []int{20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80}

// execVsCycle evaluates the point across the cycle grid.
func (e *Explorer) execVsCycle(p DesignPoint) (xs, ys []float64, err error) {
	for _, cy := range defaultCycleGrid {
		q := p
		q.CycleNs = cy
		ev, err := e.Evaluate(q)
		if err != nil {
			return nil, nil, err
		}
		xs = append(xs, float64(cy))
		ys = append(ys, ev.ExecNs)
	}
	return xs, ys, nil
}

// EqualPerformanceCycleNs returns the cycle time at which `variant` matches
// the performance of `base`, interpolated over the paper's cycle-time grid.
// This is the paper's vertical interpolation: it answers "how much cycle
// time can this organizational change buy or cost".
func (e *Explorer) EqualPerformanceCycleNs(base, variant DesignPoint) (float64, error) {
	ev, err := e.Evaluate(base)
	if err != nil {
		return 0, err
	}
	xs, ys, err := e.execVsCycle(variant)
	if err != nil {
		return 0, err
	}
	return stats.InvInterp(xs, ys, ev.ExecNs)
}

// SlopeNsPerDoubling returns the cycle-time slack a doubling of the total
// cache size buys at constant performance, the quantity mapped in the
// paper's Figure 3-4. Positive values mean the bigger cache may run that
// many nanoseconds slower per cycle and still break even.
func (e *Explorer) SlopeNsPerDoubling(p DesignPoint) (float64, error) {
	p = p.normalize()
	doubled := p
	doubled.TotalKB *= 2
	t, err := e.EqualPerformanceCycleNs(p, doubled)
	if err != nil {
		return 0, err
	}
	return t - float64(p.CycleNs), nil
}

// BreakEvenAssociativityNs returns the cycle-time degradation available to
// an n-way implementation of the point before it loses to direct mapped
// (Figures 4-3 to 4-5): the direct-mapped cycle time matching the n-way
// machine's performance, minus the n-way machine's cycle time.
func (e *Explorer) BreakEvenAssociativityNs(p DesignPoint, assoc int) (float64, error) {
	p = p.normalize()
	if assoc < 2 {
		return 0, fmt.Errorf("core: break-even needs set size >= 2, got %d", assoc)
	}
	sa := p
	sa.Assoc = assoc
	dm := p
	dm.Assoc = 1
	t, err := e.EqualPerformanceCycleNs(sa, dm)
	if err != nil {
		return 0, err
	}
	return float64(p.CycleNs) - t, nil
}

// OptimalBlockWords sweeps the block size at the point's other parameters
// and returns the (non-integral) execution-time-optimal block size via the
// paper's parabola fit, together with the best binary candidate.
func (e *Explorer) OptimalBlockWords(p DesignPoint, candidates []int) (fitted float64, binary int, err error) {
	p = p.normalize()
	if candidates == nil {
		candidates = []int{2, 4, 8, 16, 32, 64, 128}
	}
	execs := make([]float64, len(candidates))
	for i, bw := range candidates {
		q := p
		q.BlockWords = bw
		ev, err := e.Evaluate(q)
		if err != nil {
			return 0, 0, err
		}
		execs[i] = ev.ExecNs
	}
	best := stats.MinIndex(execs)
	fitted, err = analysis.OptimalBlockSize(candidates, execs)
	if err != nil {
		return 0, 0, err
	}
	return fitted, candidates[best], nil
}
