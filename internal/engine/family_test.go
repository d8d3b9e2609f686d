package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// familyKB are the paper's total sizes, 4 KB to 4 MB.
var familyKB = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// familyOrgs is the base organization's size family at one block size:
// split caches of half the total each, or one unified cache.
func familyOrgs(kbs []int, blockWords int, unified bool) []Org {
	orgs := make([]Org, len(kbs))
	for k, kb := range kbs {
		words := kb * 1024 / 4
		if unified {
			orgs[k] = Org{DCache: l1(words, blockWords, 1, cache.WriteBack, false), Unified: true}
		} else {
			c := l1(words/2, blockWords, 1, cache.WriteBack, false)
			orgs[k] = Org{ICache: c, DCache: c}
		}
	}
	return orgs
}

// checkFamily builds the family in one walk and each organization on its
// own, and requires identical profiles.
func checkFamily(t *testing.T, orgs []Org, tr *trace.Trace) {
	t.Helper()
	fam, err := BuildFamily(orgs, tr)
	if err != nil {
		t.Fatal(err)
	}
	for j, org := range orgs {
		want, err := BuildProfile(org, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fam[j], want) {
			t.Fatalf("%s %v: family profile differs from BuildProfile's (events %d vs %d)\ncounters %+v\nwant     %+v",
				tr.Name, org.DCache, len(fam[j].events), len(want.events), fam[j].total, want.total)
		}
	}
}

// TestFamilyMatchesPerConfiguration: BuildFamily's profiles are DeepEqual
// to per-configuration BuildProfile's over 4 KB to 4 MB, block sizes 2 to
// 128 words, split and unified, on all eight workloads and on the
// synthetic cross-validation traces.
func TestFamilyMatchesPerConfiguration(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.01
	}
	traces, err := workload.GenerateAll(scale)
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, crossTraces(t)...)
	for _, unified := range []bool{false, true} {
		for _, block := range []int{2, 4, 8, 16, 32, 64, 128} {
			orgs := familyOrgs(familyKB, block, unified)
			t.Run(fmt.Sprintf("unified=%v/block=%d", unified, block), func(t *testing.T) {
				for _, tr := range traces {
					checkFamily(t, orgs, tr)
				}
			})
		}
	}
}

// TestFamilyEdges: a family of one, a family that skips sizes, and warm
// boundaries at the first reference, inside the last couplet and past
// every couplet start.
func TestFamilyEdges(t *testing.T) {
	tr := workload.Random(3000, 1<<12, 0.4, 3)
	orgs := familyOrgs([]int{4, 16, 256}, 4, false)
	checkFamily(t, orgs[:1], tr)
	checkFamily(t, orgs, tr)
	for _, warm := range []int{0, tr.Len() - 1} {
		w := *tr
		w.WarmStart = warm
		checkFamily(t, orgs, &w)
		checkFamily(t, familyOrgs([]int{8, 32}, 8, true), &w)
	}
}

// TestFamilyApplies pins the predicate: the base organization's size
// family, split or unified, qualifies; anything that breaks inclusion or
// needs every access of every configuration does not.
func TestFamilyApplies(t *testing.T) {
	base := func() []Org { return familyOrgs([]int{4, 8, 16}, 4, false) }
	mutate := func(k int, f func(*cache.Config)) []Org {
		orgs := base()
		f(&orgs[k].DCache)
		return orgs
	}
	cases := []struct {
		name string
		orgs []Org
		opts *check.Options
		want bool
	}{
		{"split", base(), nil, true},
		{"unified", familyOrgs([]int{4, 8, 16}, 4, true), nil, true},
		{"one size", base()[:1], nil, true},
		{"lru", mutate(1, func(c *cache.Config) { c.Replacement = cache.LRU }), nil, true},
		{"empty", nil, nil, false},
		{"checker", base(), &check.Options{}, false},
		{"write-allocate", mutate(1, func(c *cache.Config) { c.WriteAllocate = true }), nil, false},
		{"write-through", mutate(0, func(c *cache.Config) { c.WritePolicy = cache.WriteThrough }), nil, false},
		{"2-way", mutate(2, func(c *cache.Config) { c.Assoc = 2 }), nil, false},
		{"sub-blocked", mutate(1, func(c *cache.Config) { c.FetchWords = 2 }), nil, false},
		{"two block sizes", mutate(2, func(c *cache.Config) { c.BlockWords = 8 }), nil, false},
		{"i-cache 2-way", func() []Org { o := base(); o[1].ICache.Assoc = 2; return o }(), nil, false},
		{"i-cache block", func() []Org { o := base(); o[0].ICache.BlockWords = 8; return o }(), nil, false},
		{"descending", []Org{base()[1], base()[0]}, nil, false},
		{"repeated size", []Org{base()[1], base()[1]}, nil, false},
		{"i-cache not ascending", func() []Org { o := base(); o[2].ICache.SizeWords = o[1].ICache.SizeWords; return o }(), nil, false},
		{"mixed kinds", append(base()[:1], familyOrgs([]int{16}, 4, true)...), nil, false},
		{"invalid", mutate(0, func(c *cache.Config) { c.SizeWords = 3 }), nil, false},
	}
	for _, c := range cases {
		if got := FamilyApplies(c.orgs, c.opts); got != c.want {
			t.Errorf("%s: FamilyApplies = %v, want %v", c.name, got, c.want)
		}
		if c.opts != nil {
			continue
		}
		if _, err := BuildFamily(c.orgs, workload.Random(500, 1<<10, 0.3, 1)); (err == nil) != c.want {
			t.Errorf("%s: BuildFamily error %v, want success %v", c.name, err, c.want)
		}
	}
}

// TestFamilyBadKind: the family walk reports an invalid reference kind
// as the per-configuration pass does.
func TestFamilyBadKind(t *testing.T) {
	tr := workload.Random(200, 1<<10, 0.3, 1)
	tr.Refs[150].Kind = 9
	_, err := BuildFamily(familyOrgs([]int{4, 8}, 4, false), tr)
	_, want := BuildProfile(familyOrgs([]int{4}, 4, false)[0], tr)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("BuildFamily error %v, want %v", err, want)
	}
}
