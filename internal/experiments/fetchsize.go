package experiments

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/runner"
	"repro/internal/stats"
)

// FetchSizeStudy is an extension experiment beyond the paper's figures: the
// paper's simulator exposes the fetch size ("the fetch size is called the
// transfer size by Smith") but every figure fetches whole blocks. This
// study fixes the block size and varies the fetch size, quantifying the
// sub-block placement tradeoff the paper cites from Hill & Smith: smaller
// fetches take more misses but each costs less and moves fewer words, so
// a large-block cache with small fetches behaves like a small-block cache
// with a large-block tag array.
type FetchSizeStudy struct {
	TotalKB    int
	BlockWords int
	CycleNs    int
	FetchWords []int
	// Per fetch size, geometric means over the traces.
	ReadMissRatio []float64
	ReadTraffic   []float64
	RelExecTime   []float64 // normalized to the best fetch size
	// BestFetchW minimizes execution time.
	BestFetchW int
}

// RunFetchSize sweeps the fetch size at a fixed block size.
func (s *Suite) RunFetchSize(ctx context.Context, totalKB, blockWords int, fetches []int, cycleNs int) (*FetchSizeStudy, error) {
	if totalKB == 0 {
		totalKB = 128
	}
	if blockWords == 0 {
		blockWords = 32
	}
	if fetches == nil {
		for f := 1; f <= blockWords; f *= 2 {
			fetches = append(fetches, f)
		}
	}
	if cycleNs == 0 {
		cycleNs = 40
	}
	for _, f := range fetches {
		if f > blockWords {
			return nil, fmt.Errorf("experiments: fetch %dW exceeds block %dW", f, blockWords)
		}
	}
	out := &FetchSizeStudy{TotalKB: totalKB, BlockWords: blockWords, CycleNs: cycleNs, FetchWords: fetches}
	var cells []runner.Cell[cellOut]
	for _, fw := range fetches {
		org := orgFor(totalKB, blockWords, 1)
		org.ICache.FetchWords = fw
		org.DCache.FetchWords = fw
		cells = s.counterCellsFor(cells, org)
		cells = s.replayCellsFor(cells, org, engine.Timing{
			CycleNs:       cycleNs,
			Mem:           baseTiming(cycleNs).Mem,
			WriteBufDepth: 4,
		})
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	n := len(s.Traces)
	execs := make([]float64, len(fetches))
	for k := range fetches {
		base := k * 2 * n // counters then replays per fetch size
		miss := make([]float64, n)
		traffic := make([]float64, n)
		for i := 0; i < n; i++ {
			w := outs[base+i].Warm
			miss[i] = w.ReadMissRatio()
			traffic[i] = w.ReadTrafficRatio()
		}
		out.ReadMissRatio = append(out.ReadMissRatio, ratioGeoMean(miss))
		out.ReadTraffic = append(out.ReadTraffic, ratioGeoMean(traffic))
		exec, _, err := geoExecCPR(outs[base+n:base+2*n], cycleNs)
		if err != nil {
			return nil, err
		}
		execs[k] = exec
	}
	best := stats.MinIndex(execs)
	out.BestFetchW = fetches[best]
	for _, e := range execs {
		out.RelExecTime = append(out.RelExecTime, e/execs[best])
	}
	return out, nil
}
