package cache_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchGeometries are the per-access benchmark geometries: the paper's base
// data cache (16 KB per side, 4-word blocks, direct mapped), the same size
// at two and eight ways, and a sub-blocked line (16-word blocks fetched 4
// words at a time).
var benchGeometries = []struct {
	name string
	cfg  cache.Config
}{
	{"dm", benchConfig(1, 4, 0)},
	{"2way", benchConfig(2, 4, 0)},
	{"8way", benchConfig(8, 4, 0)},
	{"subblock", benchConfig(1, 16, 4)},
}

func benchConfig(assoc, blockWords, fetchWords int) cache.Config {
	return cache.Config{SizeWords: 4096, BlockWords: blockWords, Assoc: assoc, FetchWords: fetchWords,
		Replacement: cache.Random, WritePolicy: cache.WriteBack, Seed: 1988}
}

// benchAddrs returns the extended addresses of a scaled mu3 trace, so the
// benchmarks see a real hit/miss mix rather than a synthetic stride.
func benchAddrs(b *testing.B) []uint64 {
	b.Helper()
	spec, err := workload.ByName("mu3")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := spec.Generate(0.05)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint64, 0, tr.Len())
	for _, r := range tr.Refs {
		if r.Kind != trace.Ifetch {
			addrs = append(addrs, r.Extended())
		}
	}
	return addrs
}

// benchAccess times one access path over the address stream; one
// iteration is one access. Each geometry has two variants: "result" is the
// Result-returning method the system simulator and the instrumented
// behavioural pass call, "outcome" the register-sized method the unchecked
// behavioural pass calls.
func benchAccess(b *testing.B, result func(*cache.Cache, uint64) bool, outcome func(*cache.Cache, uint64) bool) {
	addrs := benchAddrs(b)
	for _, g := range benchGeometries {
		for _, v := range []struct {
			name   string
			access func(*cache.Cache, uint64) bool
		}{{"result", result}, {"outcome", outcome}} {
			b.Run(g.name+"/"+v.name, func(b *testing.B) {
				c := cache.MustNew(g.cfg)
				var hits int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if v.access(c, addrs[i%len(addrs)]) {
						hits++
					}
				}
				if hits > b.N {
					b.Fatal("more hits than accesses")
				}
			})
		}
	}
}

func BenchmarkRead(b *testing.B) {
	benchAccess(b,
		func(c *cache.Cache, a uint64) bool { return c.Read(a).Hit },
		func(c *cache.Cache, a uint64) bool { hit, _ := c.ReadOutcome(a); return hit })
}

func BenchmarkWrite(b *testing.B) {
	benchAccess(b,
		func(c *cache.Cache, a uint64) bool { return c.Write(a).Hit },
		func(c *cache.Cache, a uint64) bool { hit, _, _ := c.WriteOutcome(a); return hit })
}
