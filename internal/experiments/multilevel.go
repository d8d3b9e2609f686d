package experiments

import (
	"context"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/runner"
	"repro/internal/system"
)

// MultilevelRow compares a single-level system against the same system with
// a second-level cache interposed, at one L1 size.
type MultilevelRow struct {
	L1TotalKB int
	// L1MissPenaltyCycles is the main-memory read time the L1 misses pay
	// without an L2.
	L1MissPenaltyCycles int
	// L2HitServiceCycles is what an L1 miss costs when it hits in L2.
	L2HitServiceCycles int
	// Cycles per reference without and with the L2.
	CPRSingle float64
	CPRMulti  float64
	// Relative execution times (normalized by the caller over the rows).
	ExecSingleNs float64
	ExecMultiNs  float64
	// L2 read hit ratio observed (geometric mean over traces).
	L2HitRatio float64
}

// Multilevel is the Section 6 experiment: the hidden variable of the
// speed–size plots is the cache miss penalty, and a second-level cache is
// the way to shorten it. The experiment shows that an L2 (a) lowers cycles
// per reference roughly in proportion to the miss-penalty reduction and (b)
// shrinks the benefit of enlarging L1 — "making small, fast caches a viable
// alternative".
type Multilevel struct {
	CycleNs int
	L2KB    int
	Rows    []MultilevelRow
}

// RunMultilevel sweeps L1 total sizes with and without a 512 KB 4-word...
// block second-level cache. The L2 uses the paper's base memory behind it.
func (s *Suite) RunMultilevel(ctx context.Context, l1SizesKB []int, l2KB, cycleNs int) (*Multilevel, error) {
	if l1SizesKB == nil {
		l1SizesKB = []int{4, 16, 64}
	}
	if l2KB == 0 {
		l2KB = 512
	}
	if cycleNs == 0 {
		cycleNs = 40
	}
	memCfg := mem.DefaultConfig()
	timing, err := memCfg.Quantize(cycleNs)
	if err != nil {
		return nil, err
	}
	out := &Multilevel{CycleNs: cycleNs, L2KB: l2KB}
	const l2Access = 3

	// One sweep over the whole (L1 size × {single, multi} × trace) grid:
	// every cell is a full single-phase simulation through the runner.
	var cells []runner.Cell[cellOut]
	n := len(s.Traces)
	for _, kb := range l1SizesKB {
		perCache := kb * 1024 / 4 / 2
		l1 := l1Config(perCache, 4, 1)
		single := system.Config{
			CycleNs:       cycleNs,
			ICache:        l1,
			DCache:        l1,
			WriteBufDepth: 4,
			Mem:           memCfg,
		}
		multi := single
		multi.L2 = &system.L2Config{
			Cache: cache.Config{
				SizeWords:     l2KB * 1024 / 4,
				BlockWords:    16,
				Assoc:         1,
				Replacement:   cache.Random,
				WritePolicy:   cache.WriteBack,
				WriteAllocate: true,
				Seed:          1988,
			},
			AccessCycles:  l2Access,
			WriteBufDepth: 4,
		}
		for i := 0; i < n; i++ {
			cells = append(cells, s.systemCell(i, single))
		}
		for i := 0; i < n; i++ {
			cells = append(cells, s.systemCell(i, multi))
		}
	}
	outs, err := s.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}

	for k, kb := range l1SizesKB {
		base := k * 2 * n
		execS, cprS, err := geoExecCPR(outs[base:base+n], cycleNs)
		if err != nil {
			return nil, err
		}
		mouts := outs[base+n : base+2*n]
		execs := make([]float64, n)
		cprs := make([]float64, n)
		hits := make([]float64, n)
		for i, o := range mouts {
			execs[i] = execTimeNs(o.Warm, cycleNs)
			cprs[i] = o.CPR
			if o.Warm.L2Reads > 0 {
				hits[i] = float64(o.Warm.L2ReadHits) / float64(o.Warm.L2Reads)
			}
		}
		execM := ratioGeoMean(execs)
		cprM := ratioGeoMean(cprs)
		hit := ratioGeoMean(hits)

		out.Rows = append(out.Rows, MultilevelRow{
			L1TotalKB:           kb,
			L1MissPenaltyCycles: timing.ReadCycles(4),
			L2HitServiceCycles:  l2Access + 4, // access + 4-word transfer
			CPRSingle:           cprS,
			CPRMulti:            cprM,
			ExecSingleNs:        execS,
			ExecMultiNs:         execM,
			L2HitRatio:          hit,
		})
	}
	return out, nil
}
