package explain_test

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

func gridTraces(tb testing.TB) []*trace.Trace {
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
	traces = append(traces, mu3.MustGenerate(0.02))
	for _, t := range traces {
		if t.WarmStart == 0 && t.Len() > 100 {
			t.WarmStart = t.Len() / 3
		}
	}
	return traces
}

func l1(sizeWords, blockWords, assoc int, repl cache.Replacement, alloc bool) cache.Config {
	return cache.Config{
		SizeWords:     sizeWords,
		BlockWords:    blockWords,
		Assoc:         assoc,
		Replacement:   repl,
		WritePolicy:   cache.WriteBack,
		WriteAllocate: alloc,
		Seed:          42,
	}
}

func sysConfig(org engine.Org) system.Config {
	return system.Config{
		CycleNs:       40,
		ICache:        org.ICache,
		DCache:        org.DCache,
		Unified:       org.Unified,
		WriteBufDepth: 4,
		Mem:           mem.DefaultConfig(),
	}
}

// TestThreeCConservationGrid runs the cross-validation grid on the system
// simulator with the recorder armed (and the selfcheck oracle watching
// its invariant) and asserts, per cell: compulsory+capacity+conflict ==
// total misses on both the whole-run and warm-window reports. The
// recorder attaches only to the system simulator; the engine reproduces
// its miss counts (engine.TestEngineMatchesSystem).
func TestThreeCConservationGrid(t *testing.T) {
	orgs := []engine.Org{
		{ICache: l1(2048, 4, 1, cache.Random, false), DCache: l1(2048, 4, 1, cache.Random, false)},
		{ICache: l1(1024, 4, 2, cache.LRU, false), DCache: l1(1024, 4, 2, cache.LRU, false)},
		{ICache: l1(2048, 8, 4, cache.Random, true), DCache: l1(2048, 8, 4, cache.Random, true)},
		{DCache: l1(4096, 4, 1, cache.Random, false), Unified: true},
		{ICache: l1(256, 2, 1, cache.LRU, false), DCache: l1(256, 2, 1, cache.LRU, true)},
	}
	// Sub-block geometry: fetch 4-word sub-blocks of 16-word lines.
	sb := l1(2048, 16, 1, cache.Random, false)
	sb.FetchWords = 4
	orgs = append(orgs, engine.Org{ICache: sb, DCache: sb})

	for _, org := range orgs {
		for _, tr := range gridTraces(t) {
			cfg := sysConfig(org)
			cfg.Explain = &explain.Options{ThreeC: true}
			cfg.SelfCheck = &check.Options{}
			sys := system.MustNew(cfg)
			res, err := sys.Run(tr)
			if err != nil {
				t.Fatalf("%v/%s: %v", org.DCache, tr.Name, err)
			}
			rep := sys.Explainer().Report()
			misses := res.Total.IfetchMisses + res.Total.LoadMisses + res.Total.StoreMisses
			if got := rep.Total3C().Total(); got != misses {
				t.Fatalf("%v/%s: classified %d misses, simulator counted %d",
					org.DCache, tr.Name, got, misses)
			}
			warmRep := sys.Explainer().ReportWarm()
			warmMisses := res.Warm.IfetchMisses + res.Warm.LoadMisses + res.Warm.StoreMisses
			if got := warmRep.Total3C().Total(); got != warmMisses {
				t.Fatalf("%v/%s: warm window classified %d misses, simulator counted %d",
					org.DCache, tr.Name, got, warmMisses)
			}
			if got := warmRep.TotalMisses(); got != warmMisses {
				t.Fatalf("%v/%s: warm report misses %d, counters %d",
					org.DCache, tr.Name, got, warmMisses)
			}
		}
	}
}

// TestConflictZeroAtFullAssociativity: a fully-associative LRU cache is
// its own conflict shadow, so the conflict class must be exactly empty.
func TestConflictZeroAtFullAssociativity(t *testing.T) {
	for _, alloc := range []bool{false, true} {
		cfgC := l1(256, 4, 64, cache.LRU, alloc)
		for _, tr := range gridTraces(t) {
			cfg := sysConfig(engine.Org{ICache: cfgC, DCache: cfgC})
			cfg.Explain = &explain.Options{ThreeC: true}
			sys := system.MustNew(cfg)
			if _, err := sys.Run(tr); err != nil {
				t.Fatalf("%s alloc=%v: %v", tr.Name, alloc, err)
			}
			if c3 := sys.Explainer().Report().Total3C(); c3.Conflict != 0 {
				t.Fatalf("%s alloc=%v: %d conflict misses at full associativity (%+v)",
					tr.Name, alloc, c3.Conflict, c3)
			}
		}
	}
}

// TestAllCompulsoryWhenCapacityCoversFootprint: with full associativity
// and capacity at least the trace's block footprint nothing is ever
// evicted, so capacity and conflict are both exactly zero — every miss is
// a first touch.
func TestAllCompulsoryWhenCapacityCoversFootprint(t *testing.T) {
	const blockWords = 4
	for _, tr := range gridTraces(t) {
		blocks := map[uint64]bool{}
		for _, r := range tr.Refs {
			blocks[r.Extended()/blockWords] = true
		}
		capBlocks := 1
		for capBlocks < len(blocks) {
			capBlocks *= 2
		}
		cfgC := l1(capBlocks*blockWords, blockWords, capBlocks, cache.LRU, true)
		cfg := sysConfig(engine.Org{ICache: cfgC, DCache: cfgC})
		cfg.Explain = &explain.Options{ThreeC: true}
		sys := system.MustNew(cfg)
		if _, err := sys.Run(tr); err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		c3 := sys.Explainer().Report().Total3C()
		if c3.Capacity != 0 || c3.Conflict != 0 {
			t.Fatalf("%s: capacity %d blocks >= footprint %d blocks, but %+v",
				tr.Name, capBlocks, len(blocks), c3)
		}
	}
}

// TestDisabledRunsBitIdentical is the acceptance check for the
// off-by-default discipline: results with Explain nil, Explain armed, and
// Explain constructed-but-disarmed are reflect.DeepEqual — the probes
// never influence the simulation.
func TestDisabledRunsBitIdentical(t *testing.T) {
	org := engine.Org{
		ICache: l1(1024, 4, 2, cache.Random, false),
		DCache: l1(1024, 4, 2, cache.Random, true),
	}
	for _, tr := range gridTraces(t) {
		base := sysConfig(org)
		want, err := system.Simulate(base, tr)
		if err != nil {
			t.Fatal(err)
		}
		armed := base
		armed.Explain = &explain.Options{ThreeC: true}
		got, err := system.Simulate(armed, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: result changed with -explain armed:\noff: %+v\non:  %+v", tr.Name, want, got)
		}
		disarmed := base
		disarmed.Explain = &explain.Options{}
		got, err = system.Simulate(disarmed, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: result changed with disarmed explain options", tr.Name)
		}
	}
}
