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

// benchAccess times one access method over the address stream, once per
// geometry; one iteration is one access.
func benchAccess(b *testing.B, access func(*cache.Cache, uint64) cache.Result) {
	addrs := benchAddrs(b)
	for _, g := range benchGeometries {
		b.Run(g.name, func(b *testing.B) {
			c := cache.MustNew(g.cfg)
			var hits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if access(c, addrs[i%len(addrs)]).Hit {
					hits++
				}
			}
			if hits > b.N {
				b.Fatal("more hits than accesses")
			}
		})
	}
}

func BenchmarkRead(b *testing.B)  { benchAccess(b, (*cache.Cache).Read) }
func BenchmarkWrite(b *testing.B) { benchAccess(b, (*cache.Cache).Write) }
