package system

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/workload"
)

// BenchmarkRun times the single-phase simulator with no instrument armed,
// over the scaled mu3 trace: the paper's base system, and the same L1s
// over a 512 KB direct-mapped L2. It reports references simulated per
// second.
func BenchmarkRun(b *testing.B) {
	spec, err := workload.ByName("mu3")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := spec.Generate(0.05)
	if err != nil {
		b.Fatal(err)
	}
	multi := DefaultConfig()
	multi.L2 = &L2Config{
		Cache: cache.Config{SizeWords: 512 * 1024 / 4, BlockWords: 16, Assoc: 1,
			Replacement: cache.Random, WritePolicy: cache.WriteBack, WriteAllocate: true, Seed: 1988},
		AccessCycles: 3, WriteBufDepth: 4,
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"base", DefaultConfig()}, {"multilevel", multi}} {
		b.Run(c.name, func(b *testing.B) {
			s := MustNew(c.cfg)
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}
