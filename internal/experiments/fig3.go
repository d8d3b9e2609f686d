package experiments

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/system"
)

// Figure31 is the miss-ratio and traffic-ratio view of the speed–size
// sweep: the classic time-independent metrics the paper starts from before
// introducing time.
type Figure31 struct {
	TotalKB []int
	// Ratios are geometric means over the traces (zero ratios are
	// clamped to a tiny floor before averaging).
	LoadMissRatio      []float64
	IfetchMissRatio    []float64
	ReadMissRatio      []float64
	ReadTrafficRatio   []float64
	WriteTrafficBlocks []float64 // all words in dirty replaced blocks
	WriteTrafficDirty  []float64 // dirty words only
}

// ratioGeoMean aggregates ratio metrics geometrically, clamping zeros so
// fully-warm huge caches on short test traces do not poison the mean.
func ratioGeoMean(xs []float64) float64 {
	const floor = 1e-9
	clamped := make([]float64, len(xs))
	for i, x := range xs {
		if x < floor {
			x = floor
		}
		clamped[i] = x
	}
	return stats.MustGeoMean(clamped)
}

// RunFigure31 sweeps the total cache size with the base organization
// (4-word blocks, direct mapped). The whole (size × trace) grid runs as
// one sweep through the runner, so every cell is independently
// checkpointed and the sweep survives interruption at any point.
func (s *Suite) RunFigure31(ctx context.Context, sizesKB []int) (*Figure31, error) {
	if sizesKB == nil {
		sizesKB = TotalSizesKB
	}
	orgs := make([]engine.Org, len(sizesKB))
	var cells []runner.Cell[cellOut]
	for k, kb := range sizesKB {
		orgs[k] = orgFor(kb, 4, 1)
		cells = s.counterCellsFor(cells, orgs[k])
	}
	s.declareFamily(orgs)
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	out := &Figure31{TotalKB: sizesKB}
	n := len(s.Traces)
	for k := range sizesKB {
		counters := make([]system.Counters, n)
		for i := 0; i < n; i++ {
			counters[i] = outs[k*n+i].Warm
		}
		collect := func(get func(system.Counters) float64) float64 {
			vals := make([]float64, n)
			for i, c := range counters {
				vals[i] = get(c)
			}
			return ratioGeoMean(vals)
		}
		out.LoadMissRatio = append(out.LoadMissRatio, collect(system.Counters.LoadMissRatio))
		out.IfetchMissRatio = append(out.IfetchMissRatio, collect(system.Counters.IfetchMissRatio))
		out.ReadMissRatio = append(out.ReadMissRatio, collect(system.Counters.ReadMissRatio))
		out.ReadTrafficRatio = append(out.ReadTrafficRatio, collect(system.Counters.ReadTrafficRatio))
		out.WriteTrafficBlocks = append(out.WriteTrafficBlocks, collect(system.Counters.WriteTrafficRatioBlocks))
		out.WriteTrafficDirty = append(out.WriteTrafficDirty, collect(system.Counters.WriteTrafficRatioDirty))
	}
	return out, nil
}

// SpeedSizeGrid runs the (size × cycle time) sweep of Figures 3-2/3-3 for
// one set size, returning a PerfGrid of execution times and cycles per
// reference. The full (size × cycle × trace) cell list runs as a single
// sweep so the worker pool sees the whole grid at once; results come back
// in input order and are aggregated per (size, cycle) group. Each
// (size, trace) replays its cycle times in one walk of its profile, and
// the direct-mapped sizes form a size family.
func (s *Suite) SpeedSizeGrid(ctx context.Context, sizesKB, cycleNs []int, assoc int) (*analysis.PerfGrid, error) {
	if sizesKB == nil {
		sizesKB = TotalSizesKB
	}
	if cycleNs == nil {
		cycleNs = CycleTimesNs
	}
	tms := make([]engine.Timing, len(cycleNs))
	for j, cy := range cycleNs {
		tms[j] = baseTiming(cy)
	}
	orgs := make([]engine.Org, len(sizesKB))
	var cells []runner.Cell[cellOut]
	for k, kb := range sizesKB {
		orgs[k] = orgFor(kb, 4, assoc)
		cells = s.replayCellsFor(cells, orgs[k], tms...)
	}
	s.declareFamily(orgs)
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	g := &analysis.PerfGrid{SizesKB: sizesKB, CycleNs: cycleNs}
	n := len(s.Traces)
	for i := range sizesKB {
		execRow := make([]float64, len(cycleNs))
		cprRow := make([]float64, len(cycleNs))
		for j := range cycleNs {
			base := (i*len(cycleNs) + j) * n
			exec, cpr, err := geoExecCPR(outs[base:base+n], cycleNs[j])
			if err != nil {
				return nil, err
			}
			execRow[j] = exec
			cprRow[j] = cpr
		}
		g.ExecNs = append(g.ExecNs, execRow)
		g.CyclesPerRef = append(g.CyclesPerRef, cprRow)
	}
	return g, nil
}

// Figure32 is the normalized total cycle count view: cycle counts decrease
// with increasing cycle time, "giving the illusion of improved
// performance". Values are normalized to the smallest count in the
// experiment (the paper normalizes to two 2 MB caches at 80 ns).
type Figure32 struct {
	SizesKB    []int
	CycleNs    []int
	Normalized [][]float64 // [size][cycle] cycle count / min cycle count
}

// RunFigure32 derives the normalized cycle counts from a speed–size grid.
func RunFigure32(g *analysis.PerfGrid) *Figure32 {
	min := 0.0
	for _, row := range g.CyclesPerRef {
		for _, v := range row {
			if min == 0 || v < min {
				min = v
			}
		}
	}
	out := &Figure32{SizesKB: g.SizesKB, CycleNs: g.CycleNs}
	for _, row := range g.CyclesPerRef {
		norm := make([]float64, len(row))
		for j, v := range row {
			norm[j] = v / min
		}
		out.Normalized = append(out.Normalized, norm)
	}
	return out
}

// Figure33 is the execution-time view of the same grid, normalized to the
// best point (the paper's Figure 3-3 plots relative execution time).
type Figure33 struct {
	SizesKB  []int
	CycleNs  []int
	Relative [][]float64 // execution time / best execution time
}

// RunFigure33 derives relative execution times from a speed–size grid.
func RunFigure33(g *analysis.PerfGrid) *Figure33 {
	best := g.BestExec()
	out := &Figure33{SizesKB: g.SizesKB, CycleNs: g.CycleNs}
	for _, row := range g.ExecNs {
		rel := make([]float64, len(row))
		for j, v := range row {
			rel[j] = v / best
		}
		out.Relative = append(out.Relative, rel)
	}
	return out
}

// Figure34 holds the lines of equal performance and the ns-per-doubling
// slope map whose contours delimit the paper's shaded regions.
type Figure34 struct {
	Contours *analysis.Contours
	// SlopeNsPerDoubling[i][j] is the equal-performance cycle-time slack
	// from SizesKB[i] to SizesKB[i+1] at CycleNs[j].
	SlopeNsPerDoubling [][]float64
	SizesKB            []int
	CycleNs            []int
}

// RunFigure34 derives the equal-performance analysis from a speed–size
// grid, using the paper's level ladder (best × 1.1, increments of 0.3).
func RunFigure34(g *analysis.PerfGrid) (*Figure34, error) {
	levels := g.ContourLevels(1.1, 0.3, 16)
	contours, err := g.ContoursAt(levels)
	if err != nil {
		return nil, err
	}
	slopes, err := g.SlopeMap()
	if err != nil {
		return nil, err
	}
	return &Figure34{
		Contours:           contours,
		SlopeNsPerDoubling: slopes,
		SizesKB:            g.SizesKB,
		CycleNs:            g.CycleNs,
	}, nil
}
