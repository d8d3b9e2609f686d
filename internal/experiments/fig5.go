package experiments

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/runner"
)

// Figure51 is the block-size study at the default organization (separate
// 64 KB I and D caches) with a 260 ns uniform-latency memory: miss ratios
// and relative execution time versus block size. Both caches are
// consistently given the same block size, as in the paper.
type Figure51 struct {
	BlockWords      []int
	LoadMissRatio   []float64
	IfetchMissRatio []float64
	ReadMissRatio   []float64
	// RelExecTime is execution time normalized to the best block size.
	RelExecTime []float64
	// MissOptimalW and PerfOptimalW are the block sizes minimizing miss
	// ratio and execution time respectively; the paper's point is that
	// the latter is substantially smaller.
	MissOptimalW int
	PerfOptimalW int
}

// fig51LatencyNs is the memory used by Figure 5-1: "the default
// organization (separate 64KB I and D caches), with a 260ns latency
// memory".
const fig51LatencyNs = 260

// RunFigure51 sweeps the block size at a fixed total size. Counter and
// replay cells for every block size go through the runner as one sweep.
func (s *Suite) RunFigure51(ctx context.Context, totalKB int, blockWords []int, cycleNs int) (*Figure51, error) {
	if totalKB == 0 {
		totalKB = 128 // two 64 KB caches
	}
	if blockWords == nil {
		blockWords = BlockSizesW
	}
	if cycleNs == 0 {
		cycleNs = 40
	}
	out := &Figure51{BlockWords: blockWords}
	tm := engine.Timing{
		CycleNs:       cycleNs,
		Mem:           mem.UniformLatency(fig51LatencyNs, mem.Rate1PerCycle),
		WriteBufDepth: 4,
	}
	var cells []runner.Cell[cellOut]
	for _, bs := range blockWords {
		org := orgFor(totalKB, bs, 1)
		cells = s.counterCellsFor(cells, org)
		cells = s.replayCellsFor(cells, org, tm)
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	n := len(s.Traces)
	execs := make([]float64, len(blockWords))
	for k := range blockWords {
		base := k * 2 * n // counters then replays per block size
		loads := make([]float64, n)
		ifetches := make([]float64, n)
		reads := make([]float64, n)
		for i := 0; i < n; i++ {
			w := outs[base+i].Warm
			loads[i] = w.LoadMissRatio()
			ifetches[i] = w.IfetchMissRatio()
			reads[i] = w.ReadMissRatio()
		}
		out.LoadMissRatio = append(out.LoadMissRatio, ratioGeoMean(loads))
		out.IfetchMissRatio = append(out.IfetchMissRatio, ratioGeoMean(ifetches))
		out.ReadMissRatio = append(out.ReadMissRatio, ratioGeoMean(reads))
		exec, _, err := geoExecCPR(outs[base+n:base+2*n], cycleNs)
		if err != nil {
			return nil, err
		}
		execs[k] = exec
	}
	best := execs[0]
	for _, e := range execs {
		if e < best {
			best = e
		}
	}
	for k, e := range execs {
		out.RelExecTime = append(out.RelExecTime, e/best)
		if e == best {
			out.PerfOptimalW = blockWords[k]
		}
	}
	missBest := 0
	for k, m := range out.ReadMissRatio {
		if m < out.ReadMissRatio[missBest] {
			missBest = k
		}
	}
	out.MissOptimalW = blockWords[missBest]
	return out, nil
}

// MemPoint is one memory parameterization of the Section 5 sweep.
type MemPoint struct {
	LatencyNs int
	Rate      mem.Rate
	// LatencyCycles is the quantized latency (address cycle included) at
	// the sweep's cycle time.
	LatencyCycles int
	// Product is la × tr, the memory speed product of Figure 5-4.
	Product float64
}

// Figure52 is execution time versus block size for every memory
// parameterization.
type Figure52 struct {
	CycleNs    int
	TotalKB    int
	BlockWords []int
	Points     []MemPoint
	// ExecNs[p][b] is the geometric-mean execution time at Points[p],
	// BlockWords[b].
	ExecNs [][]float64
}

// RunFigure52 sweeps block size × memory latency × transfer rate. The
// latency is represented by the read and write operation times and the
// recovery time, all three made equal, as in the paper.
func (s *Suite) RunFigure52(ctx context.Context, totalKB int, blockWords, latenciesNs []int, rates []mem.Rate, cycleNs int) (*Figure52, error) {
	if totalKB == 0 {
		totalKB = 128
	}
	if blockWords == nil {
		blockWords = BlockSizesW
	}
	if latenciesNs == nil {
		latenciesNs = LatenciesNs
	}
	if rates == nil {
		rates = TransferRates
	}
	if cycleNs == 0 {
		cycleNs = 40
	}
	out := &Figure52{CycleNs: cycleNs, TotalKB: totalKB, BlockWords: blockWords}
	var tms []engine.Timing
	for _, la := range latenciesNs {
		for _, rate := range rates {
			cfg := mem.UniformLatency(la, rate)
			qtm, err := cfg.Quantize(cycleNs)
			if err != nil {
				return nil, err
			}
			pt := MemPoint{
				LatencyNs:     la,
				Rate:          rate,
				LatencyCycles: qtm.LatencyCycles,
			}
			pt.Product = analysis.MemorySpeedProduct(float64(pt.LatencyCycles), rate.WordsPerCycle())
			out.Points = append(out.Points, pt)
			tms = append(tms, engine.Timing{CycleNs: cycleNs, Mem: cfg, WriteBufDepth: 4})
		}
	}
	// One replay walk per (block size, trace) serves every memory point.
	var cells []runner.Cell[cellOut]
	for _, bs := range blockWords {
		cells = s.replayCellsFor(cells, orgFor(totalKB, bs, 1), tms...)
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	n := len(s.Traces)
	for p := range out.Points {
		row := make([]float64, len(blockWords))
		for b := range blockWords {
			base := (b*len(out.Points) + p) * n
			exec, _, err := geoExecCPR(outs[base:base+n], cycleNs)
			if err != nil {
				return nil, err
			}
			row[b] = exec
		}
		out.ExecNs = append(out.ExecNs, row)
	}
	return out, nil
}

// Figure53 holds the performance-optimal block size for each memory
// parameterization, estimated by fitting a parabola to the lowest three
// points of each Figure 5-2 curve.
type Figure53 struct {
	Points []MemPoint
	// OptimalW[p] is the (non-integral) optimal block size in words.
	OptimalW []float64
	// BalancedW[p] is the block size equalizing transfer time and
	// latency, Figure 5-4's dotted line.
	BalancedW []float64
}

// RunFigure53 derives the optimal block sizes from a Figure 5-2 sweep.
func RunFigure53(f *Figure52) (*Figure53, error) {
	out := &Figure53{Points: f.Points}
	for p := range f.Points {
		opt, err := analysis.OptimalBlockSize(f.BlockWords, f.ExecNs[p])
		if err != nil {
			return nil, err
		}
		out.OptimalW = append(out.OptimalW, opt)
		out.BalancedW = append(out.BalancedW,
			analysis.BalancedBlockSize(float64(f.Points[p].LatencyCycles), f.Points[p].Rate.WordsPerCycle()))
	}
	return out, nil
}

// Figure54 groups the optimal block sizes by transfer rate against the
// memory speed product la × tr, testing the first-order derivation that
// the optimum depends only on the product.
type Figure54 struct {
	// Series maps each transfer rate to its (product, optimal block
	// size) points, ordered by latency.
	Series []Figure54Series
}

// Figure54Series is one transfer rate's line segment in Figure 5-4.
type Figure54Series struct {
	Rate     mem.Rate
	Product  []float64
	OptimalW []float64
}

// RunFigure54 regroups a Figure 5-3 result by transfer rate.
func RunFigure54(f *Figure53) *Figure54 {
	order := map[mem.Rate]int{}
	out := &Figure54{}
	for p, pt := range f.Points {
		idx, ok := order[pt.Rate]
		if !ok {
			idx = len(out.Series)
			order[pt.Rate] = idx
			out.Series = append(out.Series, Figure54Series{Rate: pt.Rate})
		}
		out.Series[idx].Product = append(out.Series[idx].Product, pt.Product)
		out.Series[idx].OptimalW = append(out.Series[idx].OptimalW, f.OptimalW[p])
	}
	return out
}
