package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestProfileCacheKeysWholeOrganization: the profile cache keys on the
// whole organization. Two organizations that differ only in the I-cache,
// or only in the replacement policy, or only in the seed, get their own
// profiles: replaying the second after the first gives what a fresh Suite
// gives.
func TestProfileCacheKeysWholeOrganization(t *testing.T) {
	mu3, err := workload.ByName("mu3")
	if err != nil {
		t.Fatal(err)
	}
	bigI := orgFor(4, 4, 1)
	bigI.ICache.SizeWords *= 64
	lru := orgFor(16, 4, 2)
	lru.ICache.Replacement, lru.DCache.Replacement = cache.LRU, cache.LRU
	reseeded := orgFor(16, 4, 2)
	reseeded.ICache.Seed, reseeded.DCache.Seed = 7, 7
	for _, c := range []struct {
		name          string
		scale         float64
		first, second engine.Org
	}{
		{"i-cache", 0.05, orgFor(4, 4, 1), bigI},
		{"replacement", 0.02, orgFor(16, 4, 2), lru},
		{"seed", 0.02, orgFor(16, 4, 2), reseeded},
	} {
		tr := mu3.MustGenerate(c.scale)
		ctx, tm := context.Background(), baseTiming(40)
		s := NewSuiteWithTraces([]*trace.Trace{tr})
		if _, err := s.ReplayWarm(ctx, c.first, tm); err != nil {
			t.Fatal(err)
		}
		got, err := s.ReplayWarm(ctx, c.second, tm)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSuiteWithTraces([]*trace.Trace{tr}).ReplayWarm(ctx, c.second, tm)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Errorf("%s: a Suite that profiled %v first replays %v to\n%+v\nwant (fresh Suite)\n%+v",
				c.name, c.first.DCache, c.second.DCache, got[0], want[0])
		}
	}
}

// TestFamilySlots: a declared size family fills every slot of its
// organizations in one walk per trace, with the profiles a
// per-configuration build gives; profiles_built counts profiles, not
// walks; and a family declared over sizes already in the cache builds
// nothing again: the unified row is a new group.
func TestFamilySlots(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{Workers: 2, Metrics: reg})
	sizes := []int{8, 16, 32, 64}
	if _, err := s.RunFigure31(context.Background(), sizes); err != nil {
		t.Fatal(err)
	}
	n := int64(len(s.Traces) * len(sizes))
	if built := reg.Counter(obs.MProfilesBuilt).Value(); built != n {
		t.Fatalf("profiles_built = %d, want %d", built, n)
	}
	// oneGroup requires the organizations' slots of trace i to form one
	// build group of exactly those slots, and returns it.
	oneGroup := func(i int, orgs []engine.Org) *buildGroup {
		t.Helper()
		var g *buildGroup
		for _, org := range orgs {
			e := s.profiles[profileKey{traceIdx: i, org: org}]
			if e == nil || (g != nil && e.g != g) {
				t.Fatalf("%s %v: slot %+v is not in the trace's one group", s.Traces[i].Name, org.DCache, e)
			}
			g = e.g
		}
		if len(g.slots) != len(orgs) {
			t.Fatalf("%s: the group has %d slots, want %d", s.Traces[i].Name, len(g.slots), len(orgs))
		}
		return g
	}
	split := make([]*buildGroup, len(s.Traces))
	for i, tr := range s.Traces {
		var orgs []engine.Org
		for _, kb := range sizes {
			orgs = append(orgs, orgFor(kb, 4, 1))
		}
		split[i] = oneGroup(i, orgs)
		for _, org := range orgs {
			want, err := engine.BuildProfile(org, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(s.profiles[profileKey{traceIdx: i, org: org}].p, want) {
				t.Fatalf("%s %v: family profile differs from BuildProfile's", tr.Name, org.DCache)
			}
		}
	}
	// The split row's sizes are all built; the unified row is a new
	// group.
	if _, err := s.RunSplitUnified(context.Background(), []int{16, 32}, 40); err != nil {
		t.Fatal(err)
	}
	if built := reg.Counter(obs.MProfilesBuilt).Value(); built != n+int64(2*len(s.Traces)) {
		t.Fatalf("profiles_built = %d after split/unified, want %d", built, n+int64(2*len(s.Traces)))
	}
	for i := range s.Traces {
		var unified []engine.Org
		for _, kb := range []int{16, 32} {
			unified = append(unified, engine.Org{DCache: l1Config(kb*1024/4, 4, 1), Unified: true})
		}
		if g := oneGroup(i, unified); g == split[i] {
			t.Fatalf("%s: the unified row joined the split row's group", s.Traces[i].Name)
		}
	}
}

// TestInstrumentsBuildAlone: while the checker is armed, no family is
// declared, so every profile comes from its own checked pass, and every
// replay cell replays on its own.
func TestInstrumentsBuildAlone(t *testing.T) {
	orgs := []engine.Org{orgFor(8, 4, 1), orgFor(16, 4, 1)}
	for _, c := range []struct {
		name     string
		exec     ExecOptions
		families bool
	}{
		{"bare", ExecOptions{}, true},
		{"selfcheck", ExecOptions{SelfCheck: &check.Options{}}, false},
	} {
		s := MustNewSuiteWithTracesForTest(t)
		s.SetExec(c.exec)
		s.declareFamily(orgs)
		if got := len(s.profiles) > 0; got != c.families {
			t.Errorf("%s: family declared = %v, want %v", c.name, got, c.families)
		}
		shared := c.name == "bare"
		for i, g := range s.laneGroups(16) {
			if (g != nil) != shared {
				t.Errorf("%s: trace %d's replay cells share a walk = %v, want %v", c.name, i, g != nil, shared)
			}
		}
		for _, g := range s.laneGroups(1) {
			if g != nil {
				t.Errorf("%s: a single timing formed a lane group", c.name)
			}
		}
	}
}

// TestConcurrentSweepsShareWalks: sweeps running at once on one Suite,
// each declaring the same size family and forming its own lane groups,
// build each profile once between them and give a fresh Suite's grid.
// Run with -race to check the family slots' and lane groups'
// synchronization.
func TestConcurrentSweepsShareWalks(t *testing.T) {
	sizes, cycles := []int{8, 16, 32}, []int{20, 32, 40, 60, 80}
	ctx := context.Background()
	want, err := MustNewSuiteWithTracesForTest(t).SpeedSizeGrid(ctx, sizes, cycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{Workers: 4, Metrics: reg})
	const sweeps = 4
	var wg sync.WaitGroup
	for g := 0; g < sweeps; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.SpeedSizeGrid(ctx, sizes, cycles, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("a concurrent sweep's grid differs from a fresh Suite's")
			}
		}()
	}
	wg.Wait()
	if built, n := reg.Counter(obs.MProfilesBuilt).Value(), int64(len(sizes)*len(s.Traces)); built != n {
		t.Errorf("profiles_built = %d, want %d", built, n)
	}
}
