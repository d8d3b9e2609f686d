package engine

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestReplayDependsOnlyOnCycleDomain: over a seeded sample of timings
// (cycle 20–80 ns, uniform latency 100–420 ns, every transfer rate the
// paper sweeps, write buffer depth 0, 1 or 4), any two timings with the same
// cycle-domain form replay to identical counters; only the Result's CycleNs
// differs, and it is each timing's own.
func TestReplayDependsOnlyOnCycleDomain(t *testing.T) {
	orgs := []Org{
		{ICache: l1(1024, 4, 1, cache.WriteBack, false), DCache: l1(1024, 4, 1, cache.WriteBack, false)},
		{ICache: l1(2048, 8, 2, cache.WriteThrough, false), DCache: l1(2048, 8, 2, cache.WriteThrough, false)},
	}
	rates := []mem.Rate{mem.Rate4PerCycle, mem.Rate2PerCycle, mem.Rate1PerCycle, mem.Rate1Per2, mem.Rate1Per4}
	depths := []int{0, 1, 4}
	rng := rand.New(rand.NewSource(1988))
	var timings []Timing
	for k := 0; k < 160; k++ {
		timings = append(timings, Timing{
			CycleNs:       20 + rng.Intn(61),
			Mem:           mem.UniformLatency(100+rng.Intn(321), rates[rng.Intn(len(rates))]),
			WriteBufDepth: depths[rng.Intn(len(depths))],
		})
	}
	groups := make(map[CycleTiming][]Timing)
	for _, tm := range timings {
		ct, err := tm.CycleDomain()
		if err != nil {
			t.Fatal(err)
		}
		if ct.Mem.CycleNs != 0 {
			t.Fatalf("cycle-domain form of %+v keeps CycleNs %d", tm, ct.Mem.CycleNs)
		}
		groups[ct] = append(groups[ct], tm)
	}
	shared := 0
	for _, g := range groups {
		if len(g) > 1 {
			shared++
		}
	}
	if shared < 10 {
		t.Fatalf("only %d cycle-domain forms are shared by two sampled timings; the sample tests too little", shared)
	}

	for _, name := range []string{"mu3", "rd2n4"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := spec.MustGenerate(0.02)
		for _, org := range orgs {
			p, err := BuildProfile(org, tr)
			if err != nil {
				t.Fatal(err)
			}
			for ct, g := range groups {
				if len(g) < 2 {
					continue
				}
				want, err := p.Replay(g[0])
				if err != nil {
					t.Fatal(err)
				}
				for _, tm := range g {
					got, err := p.Replay(tm)
					if err != nil {
						t.Fatal(err)
					}
					if got.CycleNs != tm.CycleNs {
						t.Fatalf("%s: replay at %d ns reports CycleNs %d", name, tm.CycleNs, got.CycleNs)
					}
					if got.Total != want.Total || got.Warm != want.Warm {
						t.Fatalf("%s %v: timings %+v and %+v share cycle-domain form %+v but replay differently:\n%+v\n%+v",
							name, org.DCache, g[0], tm, ct, want.Warm, got.Warm)
					}
				}
			}
		}
	}
}
