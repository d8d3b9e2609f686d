package engine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestBuildProfileChecked runs the behavioural pass with the lockstep
// oracle attached and requires zero divergences and counters identical to
// an unchecked build, then replays with the audited write buffer.
func TestBuildProfileChecked(t *testing.T) {
	l1cfg := func(size, block, assoc int, rep cache.Replacement) cache.Config {
		return cache.Config{SizeWords: size, BlockWords: block, Assoc: assoc,
			Replacement: rep, WritePolicy: cache.WriteBack, Seed: 2}
	}
	orgs := []Org{
		{ICache: l1cfg(1024, 4, 1, cache.Random), DCache: l1cfg(1024, 4, 1, cache.Random)},
		{ICache: l1cfg(512, 8, 2, cache.LRU), DCache: l1cfg(512, 8, 4, cache.FIFO)},
		{DCache: l1cfg(2048, 4, 2, cache.Random), Unified: true},
	}
	wt := orgs[0]
	wt.DCache.WritePolicy = cache.WriteThrough
	orgs = append(orgs, wt)

	tr := workload.Random(6000, 4000, 0.3, 13)
	opts := &check.Options{Every: 256}
	for i, org := range orgs {
		plain, err := BuildProfile(org, tr)
		if err != nil {
			t.Fatalf("org %d: BuildProfile: %v", i, err)
		}
		checked, err := BuildProfileExplained(org, tr, opts, nil)
		if err != nil {
			t.Fatalf("org %d: checked BuildProfileExplained diverged: %v", i, err)
		}
		if checked.TotalCounters() != plain.TotalCounters() {
			t.Errorf("org %d: checked build changed the counters", i)
		}

		for _, tm := range []Timing{
			{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4},
			{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 0},
			{CycleNs: 20, Mem: mem.UniformLatency(420, mem.Rate1Per4), WriteBufDepth: 1},
		} {
			want, err := plain.Replay(tm)
			if err != nil {
				t.Fatalf("org %d: Replay: %v", i, err)
			}
			got, err := checked.ReplayTraced(tm, opts, nil)
			if err != nil {
				t.Fatalf("org %d: checked ReplayTraced diverged: %v", i, err)
			}
			if got != want {
				t.Errorf("org %d: checked replay changed the result", i)
			}
		}
	}
}
