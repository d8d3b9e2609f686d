package engine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// laneTimings are the sweeps' timings: the paper's sixteen cycle times at
// the base memory, and Figure 5-2's twenty-five memory points (five
// latencies × five transfer rates) at 40 ns, plus write-buffer depths 0
// and 1.
func laneTimings() []Timing {
	var tms []Timing
	for cy := 20; cy <= 80; cy += 4 {
		tms = append(tms, Timing{CycleNs: cy, Mem: mem.DefaultConfig(), WriteBufDepth: 4})
	}
	for _, la := range []int{100, 180, 260, 340, 420} {
		for _, rate := range []mem.Rate{mem.Rate4PerCycle, mem.Rate2PerCycle, mem.Rate1PerCycle, mem.Rate1Per2, mem.Rate1Per4} {
			tms = append(tms, Timing{CycleNs: 40, Mem: mem.UniformLatency(la, rate), WriteBufDepth: 4})
		}
	}
	for _, depth := range []int{0, 1} {
		tms = append(tms, Timing{CycleNs: 28, Mem: mem.DefaultConfig(), WriteBufDepth: depth})
	}
	return tms
}

// TestReplayLanesMatchSeparate: one walk over many lanes gives each lane
// exactly the Result a separate Replay gives at its timing (CycleNs aside,
// which a cycle-domain lane leaves zero), for direct-mapped, 2-way and
// 8-way, write-through, write-allocate, unified and sub-block profiles.
// Timings that share a cycle-domain form share nothing else: their lanes
// run side by side.
func TestReplayLanesMatchSeparate(t *testing.T) {
	split := func(c cache.Config) Org { return Org{ICache: c, DCache: c} }
	withD := func(o Org, c cache.Config) Org { o.DCache = c; return o }
	orgs := map[string]Org{
		"dm":             split(l1(1024, 4, 1, cache.WriteBack, false)),
		"2way":           split(l1(2048, 8, 2, cache.WriteBack, false)),
		"8way":           split(l1(4096, 4, 8, cache.WriteBack, false)),
		"write-through":  withD(split(l1(1024, 4, 1, cache.WriteBack, false)), l1(1024, 4, 1, cache.WriteThrough, false)),
		"write-alloc":    withD(split(l1(1024, 4, 2, cache.WriteBack, false)), l1(1024, 4, 2, cache.WriteBack, true)),
		"wt-alloc":       withD(split(l1(1024, 4, 1, cache.WriteBack, false)), l1(1024, 4, 1, cache.WriteThrough, true)),
		"unified":        {DCache: l1(2048, 4, 2, cache.WriteBack, false), Unified: true},
		"subblock":       split(sub(2048, 16, 4)),
		"subblock-alloc": withD(split(sub(2048, 32, 8)), subAlloc(2048, 32, 8)),
	}
	tms := laneTimings()
	cts := make([]CycleTiming, len(tms))
	for k, tm := range tms {
		var err error
		if cts[k], err = tm.CycleDomain(); err != nil {
			t.Fatal(err)
		}
	}
	mu3, err := workload.ByName("mu3")
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{mu3.MustGenerate(0.02), workload.Random(6000, 1<<13, 0.35, 5)}
	for name, org := range orgs {
		for _, tr := range traces {
			p, err := BuildProfile(org, tr)
			if err != nil {
				t.Fatal(err)
			}
			lanes, err := p.ReplayLanes(cts)
			if err != nil {
				t.Fatal(err)
			}
			for k, tm := range tms {
				want, err := p.Replay(tm)
				if err != nil {
					t.Fatal(err)
				}
				want.CycleNs = 0
				if !reflect.DeepEqual(lanes[k], want) {
					t.Fatalf("%s/%s: lane %d (%+v) differs from a separate replay:\n%+v\nwant %+v",
						name, tr.Name, k, tm, lanes[k].Warm, want.Warm)
				}
			}
		}
	}
}

// TestReplayLanesEmpty: no lanes is no work, and a bad lane fails the
// call.
func TestReplayLanesEmpty(t *testing.T) {
	p, err := BuildProfile(benchOrg(1), workload.Random(500, 1<<10, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := p.ReplayLanes(nil); err != nil || len(rs) != 0 {
		t.Fatalf("ReplayLanes(nil) = %v, %v", rs, err)
	}
	ct, err := Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4}.CycleDomain()
	if err != nil {
		t.Fatal(err)
	}
	bad := ct
	bad.WriteBufDepth = -1
	if _, err := p.ReplayLanes([]CycleTiming{ct, bad}); err == nil {
		t.Fatal("a lane with a negative write-buffer depth replayed")
	}
}
