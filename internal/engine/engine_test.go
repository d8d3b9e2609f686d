package engine

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// crossTraces builds the stimulus set shared by the cross-validation tests:
// synthetic micro-patterns plus scaled-down catalog workloads from both
// families.
func crossTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	traces := []*trace.Trace{
		workload.Sequential(4000, 0),
		workload.Loop(4000, 300),
		workload.Random(4000, 4096, 0.3, 7),
		workload.Couplets(4000),
		workload.Conflict(2000, 1<<14),
	}
	mu3, err := workload.ByName("mu3")
	if err != nil {
		tb.Fatal(err)
	}
	rd2n4, err := workload.ByName("rd2n4")
	if err != nil {
		tb.Fatal(err)
	}
	traces = append(traces, mu3.MustGenerate(0.02), rd2n4.MustGenerate(0.02))
	// Give the synthetic traces a warm boundary too, so warm-window
	// accounting is exercised everywhere.
	for _, t := range traces {
		if t.WarmStart == 0 && t.Len() > 100 {
			t.WarmStart = t.Len() / 3
		}
	}
	return traces
}

func l1(sizeWords, blockWords, assoc int, pol cache.WritePolicy, alloc bool) cache.Config {
	return cache.Config{
		SizeWords:     sizeWords,
		BlockWords:    blockWords,
		Assoc:         assoc,
		Replacement:   cache.Random,
		WritePolicy:   pol,
		WriteAllocate: alloc,
		Seed:          42,
	}
}

func sub(sizeWords, blockWords, fetchWords int) cache.Config {
	cfg := l1(sizeWords, blockWords, 1, cache.WriteBack, false)
	cfg.FetchWords = fetchWords
	return cfg
}

func subAlloc(sizeWords, blockWords, fetchWords int) cache.Config {
	cfg := sub(sizeWords, blockWords, fetchWords)
	cfg.WriteAllocate = true
	return cfg
}

func withRep(cfg cache.Config, rep cache.Replacement) cache.Config {
	cfg.Replacement = rep
	return cfg
}

// TestEngineMatchesSystem asserts that the two-phase engine reproduces the
// single-phase reference simulator exactly — cycle counts, stall cycles,
// buffer matches, memory operations and every behavioural counter — across
// a grid of organizations, timings and traces. Random replacement is the
// paper's; the LRU and FIFO rows cross-check the other policies.
func TestEngineMatchesSystem(t *testing.T) {
	traces := crossTraces(t)

	type orgCase struct {
		name string
		org  Org
	}
	orgs := []orgCase{
		{"base-16KB", Org{ICache: l1(2048, 4, 1, cache.WriteBack, false), DCache: l1(2048, 4, 1, cache.WriteBack, false)}},
		{"2way-8KB", Org{ICache: l1(1024, 4, 2, cache.WriteBack, false), DCache: l1(1024, 4, 2, cache.WriteBack, false)}},
		{"4way-bs8", Org{ICache: l1(2048, 8, 4, cache.WriteBack, false), DCache: l1(2048, 8, 4, cache.WriteBack, false)}},
		{"bs32", Org{ICache: l1(4096, 32, 1, cache.WriteBack, false), DCache: l1(4096, 32, 1, cache.WriteBack, false)}},
		{"write-alloc", Org{ICache: l1(2048, 4, 1, cache.WriteBack, false), DCache: l1(2048, 4, 1, cache.WriteBack, true)}},
		{"write-through", Org{ICache: l1(2048, 4, 1, cache.WriteBack, false), DCache: l1(2048, 4, 1, cache.WriteThrough, false)}},
		{"unified", Org{DCache: l1(4096, 4, 1, cache.WriteBack, false), Unified: true}},
		{"tiny", Org{ICache: l1(256, 2, 1, cache.WriteBack, false), DCache: l1(256, 2, 1, cache.WriteBack, false)}},
		{"subblock", Org{ICache: sub(2048, 16, 4), DCache: sub(2048, 16, 4)}},
		{"subblock-alloc", Org{ICache: sub(2048, 32, 8), DCache: subAlloc(2048, 32, 8)}},
		{"2way-lru", Org{ICache: withRep(l1(1024, 4, 2, cache.WriteBack, false), cache.LRU), DCache: withRep(l1(1024, 4, 2, cache.WriteBack, false), cache.LRU)}},
		{"8way-fifo-alloc", Org{ICache: withRep(l1(2048, 4, 8, cache.WriteBack, false), cache.FIFO), DCache: withRep(l1(2048, 4, 8, cache.WriteBack, true), cache.FIFO)}},
	}
	timings := []Timing{
		{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4},
		{CycleNs: 20, Mem: mem.DefaultConfig(), WriteBufDepth: 4},
		{CycleNs: 56, Mem: mem.DefaultConfig(), WriteBufDepth: 1},
		{CycleNs: 60, Mem: mem.UniformLatency(420, mem.Rate1Per4), WriteBufDepth: 0},
		{CycleNs: 32, Mem: mem.UniformLatency(100, mem.Rate4PerCycle), WriteBufDepth: 4},
	}

	for _, oc := range orgs {
		for _, tr := range traces {
			prof, err := BuildProfile(oc.org, tr)
			if err != nil {
				t.Fatalf("%s/%s: profile: %v", oc.name, tr.Name, err)
			}
			for _, tm := range timings {
				got, err := prof.Replay(tm)
				if err != nil {
					t.Fatalf("%s/%s: replay: %v", oc.name, tr.Name, err)
				}
				cfg := system.Config{
					CycleNs:       tm.CycleNs,
					ICache:        oc.org.ICache,
					DCache:        oc.org.DCache,
					Unified:       oc.org.Unified,
					WriteBufDepth: tm.WriteBufDepth,
					Mem:           tm.Mem,
				}
				want, err := system.Simulate(cfg, tr)
				if err != nil {
					t.Fatalf("%s/%s: system: %v", oc.name, tr.Name, err)
				}
				if got.Total != want.Total {
					t.Errorf("%s/%s @%dns: total counters diverge\nengine: %+v\nsystem: %+v",
						oc.name, tr.Name, tm.CycleNs, got.Total, want.Total)
				}
				if got.Warm != want.Warm {
					t.Errorf("%s/%s @%dns: warm counters diverge\nengine: %+v\nsystem: %+v",
						oc.name, tr.Name, tm.CycleNs, got.Warm, want.Warm)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
}

// TestProfileReusable asserts a profile replays identically across repeated
// calls and that replays at different timings differ only in timing fields.
func TestProfileReusable(t *testing.T) {
	tr := workload.Random(8000, 8192, 0.3, 11)
	org := Org{ICache: l1(1024, 4, 1, cache.WriteBack, false), DCache: l1(1024, 4, 1, cache.WriteBack, false)}
	prof, err := BuildProfile(org, tr)
	if err != nil {
		t.Fatal(err)
	}
	tm := Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
	a, err := prof.Replay(tm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prof.Replay(tm)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}
	slow, err := prof.Replay(Timing{CycleNs: 40, Mem: mem.UniformLatency(420, mem.Rate1Per4), WriteBufDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total.Cycles <= a.Total.Cycles {
		t.Fatalf("slower memory did not increase cycles: %d <= %d", slow.Total.Cycles, a.Total.Cycles)
	}
	if slow.Total.LoadMisses != a.Total.LoadMisses || slow.Total.IfetchMisses != a.Total.IfetchMisses {
		t.Fatal("behavioural counters changed across timings")
	}
}

// TestEventsAreSparse sanity-checks that the profile is much smaller than
// the trace for a cache-friendly workload — the whole point of the engine.
func TestEventsAreSparse(t *testing.T) {
	tr := workload.Loop(20000, 256)
	org := Org{ICache: l1(1024, 4, 1, cache.WriteBack, false), DCache: l1(1024, 4, 1, cache.WriteBack, false)}
	prof, err := BuildProfile(org, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev := prof.Events(); ev > 100 {
		t.Fatalf("loop workload produced %d events, expected only compulsory misses", ev)
	}
}

// TestEngineMatchesSystemRandomized drives randomly drawn organizations and
// timings through both simulators with testing/quick, complementing the
// fixed grid above.
func TestEngineMatchesSystemRandomized(t *testing.T) {
	tr := workload.Random(6000, 1<<14, 0.3, 17)
	tr.WarmStart = 2000
	mu3, err := workload.ByName("mu3")
	if err != nil {
		t.Fatal(err)
	}
	tr2 := mu3.MustGenerate(0.01)

	check := func(sizeSel, blockSel, assocSel, fetchSel, polSel, cySel, depthSel uint8) bool {
		sizes := []int{256, 1024, 4096}
		blocks := []int{2, 4, 16, 32}
		assocs := []int{1, 2, 4}
		cycles := []int{20, 36, 40, 56, 60, 80}
		depths := []int{0, 1, 4}
		cfg := cache.Config{
			SizeWords:     sizes[int(sizeSel)%len(sizes)],
			BlockWords:    blocks[int(blockSel)%len(blocks)],
			Assoc:         assocs[int(assocSel)%len(assocs)],
			Replacement:   cache.Random,
			WritePolicy:   cache.WritePolicy(polSel % 2),
			WriteAllocate: polSel%3 == 0,
			Seed:          uint64(polSel) + 1,
		}
		// Sometimes sub-block the caches.
		if f := blocks[int(blockSel)%len(blocks)] >> (fetchSel % 3); f >= 1 && f < cfg.BlockWords {
			cfg.FetchWords = f
		}
		org := Org{ICache: cfg, DCache: cfg, Unified: fetchSel%5 == 0}
		tm := Timing{
			CycleNs:       cycles[int(cySel)%len(cycles)],
			Mem:           mem.DefaultConfig(),
			WriteBufDepth: depths[int(depthSel)%len(depths)],
		}
		if cySel%2 == 0 {
			tm.Mem = mem.UniformLatency(100+40*int(cySel%9), mem.Rate1Per2)
		}
		for _, stimulus := range []*trace.Trace{tr, tr2} {
			prof, err := BuildProfile(org, stimulus)
			if err != nil {
				return false
			}
			got, err := prof.Replay(tm)
			if err != nil {
				return false
			}
			want, err := system.Simulate(system.Config{
				CycleNs:       tm.CycleNs,
				ICache:        org.ICache,
				DCache:        org.DCache,
				Unified:       org.Unified,
				WriteBufDepth: tm.WriteBufDepth,
				Mem:           tm.Mem,
			}, stimulus)
			if err != nil {
				return false
			}
			if got.Total != want.Total || got.Warm != want.Warm {
				t.Logf("divergence for org %+v timing %+v", org, tm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := BuildProfile(Org{}, workload.Sequential(10, 0)); err == nil {
		t.Error("empty org validated")
	}
	org := Org{ICache: l1(1024, 4, 1, cache.WriteBack, false), DCache: l1(1024, 4, 1, cache.WriteBack, false)}
	prof, err := BuildProfile(org, workload.Sequential(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Replay(Timing{CycleNs: 0, Mem: mem.DefaultConfig()}); err == nil {
		t.Error("zero cycle time validated")
	}
	if _, err := prof.Replay(Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: -1}); err == nil {
		t.Error("negative buffer depth validated")
	}
}
