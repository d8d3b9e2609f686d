package experiments

import (
	"context"

	"repro/internal/engine"
	"repro/internal/runner"
)

// SplitUnifiedStudy compares the paper's Harvard organization against a
// unified cache of the same total capacity — the tradeoff of the paper's
// reference [6] (Haikala & Kutvonen, "Split Cache Organizations"). A
// unified cache shares capacity flexibly between code and data but every
// instruction+data couplet serializes on its single port, which the
// simulator models by sending both references of a couplet to the same
// cache.
type SplitUnifiedStudy struct {
	TotalKB []int
	CycleNs int
	// Geometric means over the traces.
	SplitMissRatio   []float64
	UnifiedMissRatio []float64
	SplitCPR         []float64
	UnifiedCPR       []float64
}

// RunSplitUnified sweeps the total size for both organizations as one
// runner sweep: counter and replay cells for each (size × variant). Each
// variant's sizes form a direct-mapped size family.
func (s *Suite) RunSplitUnified(ctx context.Context, sizesKB []int, cycleNs int) (*SplitUnifiedStudy, error) {
	if sizesKB == nil {
		sizesKB = []int{8, 16, 32, 64, 128, 256}
	}
	if cycleNs == 0 {
		cycleNs = 40
	}
	out := &SplitUnifiedStudy{TotalKB: sizesKB, CycleNs: cycleNs}
	orgsFor := func(kb int) [2]engine.Org {
		return [2]engine.Org{
			orgFor(kb, 4, 1),
			{DCache: l1Config(kb*1024/4, 4, 1), Unified: true},
		}
	}
	var families [2][]engine.Org
	var cells []runner.Cell[cellOut]
	for _, kb := range sizesKB {
		for v, org := range orgsFor(kb) {
			families[v] = append(families[v], org)
			cells = s.counterCellsFor(cells, org)
			cells = s.replayCellsFor(cells, org, baseTiming(cycleNs))
		}
	}
	for _, f := range families {
		s.declareFamily(f)
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	n := len(s.Traces)
	for k := range sizesKB {
		for v, dst := range []struct {
			miss *[]float64
			cpr  *[]float64
		}{
			{&out.SplitMissRatio, &out.SplitCPR},
			{&out.UnifiedMissRatio, &out.UnifiedCPR},
		} {
			base := (k*2 + v) * 2 * n // counters then replays per variant
			miss := make([]float64, n)
			for i := 0; i < n; i++ {
				miss[i] = outs[base+i].Warm.ReadMissRatio()
			}
			*dst.miss = append(*dst.miss, ratioGeoMean(miss))
			_, cpr, err := geoExecCPR(outs[base+n:base+2*n], cycleNs)
			if err != nil {
				return nil, err
			}
			*dst.cpr = append(*dst.cpr, cpr)
		}
	}
	return out, nil
}
