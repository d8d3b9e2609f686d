package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFastPathEquivalence states where the behavioural pass's fast access
// path applies and pins that it changes nothing. BuildProfile with neither
// a checker nor an armed explain recorder drives the caches through the
// register-sized ReadOutcome/WriteOutcome; BuildProfileExplained with a
// lockstep oracle or with an armed recorder drives them through the
// Result-returning decorated route. All three must record the same events,
// gaps and counters, and replay to the same results, for every
// organization the engine accepts.
func TestFastPathEquivalence(t *testing.T) {
	cfg := func(size, block, assoc int, rep cache.Replacement) cache.Config {
		return cache.Config{SizeWords: size, BlockWords: block, Assoc: assoc,
			Replacement: rep, WritePolicy: cache.WriteBack, Seed: 5}
	}
	split := func(c cache.Config) Org { return Org{ICache: c, DCache: c} }
	withD := func(o Org, mutate func(*cache.Config)) Org {
		mutate(&o.DCache)
		return o
	}
	orgs := map[string]Org{
		"dm-random":     split(cfg(1024, 4, 1, cache.Random)),
		"2way-lru":      split(cfg(1024, 4, 2, cache.LRU)),
		"8way-fifo":     split(cfg(2048, 8, 8, cache.FIFO)),
		"8way-random":   split(cfg(2048, 4, 8, cache.Random)),
		"write-through": withD(split(cfg(1024, 4, 1, cache.Random)), func(c *cache.Config) { c.WritePolicy = cache.WriteThrough }),
		"write-alloc":   withD(split(cfg(1024, 4, 2, cache.LRU)), func(c *cache.Config) { c.WriteAllocate = true }),
		"wt-alloc":      withD(split(cfg(1024, 4, 1, cache.Random)), func(c *cache.Config) { c.WritePolicy, c.WriteAllocate = cache.WriteThrough, true }),
		"subblock":      withD(split(cfg(2048, 16, 1, cache.Random)), func(c *cache.Config) { c.FetchWords = 4 }),
		"subblock-alloc": withD(split(cfg(2048, 32, 2, cache.FIFO)), func(c *cache.Config) {
			c.FetchWords, c.WriteAllocate = 8, true
		}),
		"unified": {DCache: cfg(4096, 4, 2, cache.Random), Unified: true},
	}
	timings := []Timing{
		{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4},
		{CycleNs: 20, Mem: mem.UniformLatency(420, mem.Rate1Per4), WriteBufDepth: 1},
		{CycleNs: 32, Mem: mem.UniformLatency(100, mem.Rate4PerCycle), WriteBufDepth: 0},
	}
	mu3, err := workload.ByName("mu3")
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{workload.Random(6000, 4000, 0.3, 13), mu3.MustGenerate(0.01)}

	for name, org := range orgs {
		for _, tr := range traces {
			fast, err := BuildProfile(org, tr)
			if err != nil {
				t.Fatalf("%s/%s: BuildProfile: %v", name, tr.Name, err)
			}
			checked, err := BuildProfileExplained(org, tr, &check.Options{Every: 512}, nil)
			if err != nil {
				t.Fatalf("%s/%s: checked BuildProfileExplained: %v", name, tr.Name, err)
			}
			explained, err := BuildProfileExplained(org, tr, nil, explain.New(explain.All()))
			if err != nil {
				t.Fatalf("%s/%s: BuildProfileExplained: %v", name, tr.Name, err)
			}
			for route, p := range map[string]*Profile{"checked": checked, "explained": explained} {
				if !reflect.DeepEqual(p, fast) {
					t.Errorf("%s/%s: %s build differs from the fast path (events %d vs %d, counters equal: %v)",
						name, tr.Name, route, len(p.events), len(fast.events), p.total == fast.total)
					continue
				}
				for _, tm := range timings {
					want, err := fast.Replay(tm)
					if err != nil {
						t.Fatalf("%s/%s: Replay: %v", name, tr.Name, err)
					}
					got, err := p.Replay(tm)
					if err != nil {
						t.Fatalf("%s/%s: %s Replay: %v", name, tr.Name, route, err)
					}
					if got != want {
						t.Errorf("%s/%s: %s replay at %d ns differs from the fast path", name, tr.Name, route, tm.CycleNs)
					}
				}
			}
		}
	}
}

// TestBadKindFailsInPass: the behavioural pass checks reference kinds as it
// goes instead of scanning the trace first, and reports the first bad one
// with the error trace.Validate gives, whether the bad reference would
// lead a couplet or follow an ifetch.
func TestBadKindFailsInPass(t *testing.T) {
	org := Org{ICache: l1(256, 4, 1, cache.WriteBack, false), DCache: l1(256, 4, 1, cache.WriteBack, false)}
	for _, at := range []int{0, 5, 6, 99} {
		tr := workload.Couplets(100)
		tr.Refs[at].Kind = 7
		want := tr.Validate()
		if want == nil {
			t.Fatalf("ref %d: Validate accepted kind 7", at)
		}
		_, err := BuildProfile(org, tr)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("ref %d: BuildProfile error %v, want %v", at, err, want)
		}
		if !strings.Contains(want.Error(), "invalid kind") {
			t.Errorf("ref %d: unexpected Validate error %v", at, want)
		}
	}
}
