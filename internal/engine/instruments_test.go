package engine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/simtrace"
	"repro/internal/system"
	"repro/internal/workload"
)

// TestStackedInstrumentsSelfCheck arms all three instruments at once in
// the system simulator — the lockstep checker, simtrace attribution and
// interval windows, and the explain 3C classification — so each L1 runs
// the full decorator stack (real cache, then check.Shadow, then
// explain.Probe). The checker must report no divergence, the counters must
// equal a bare run's, the attribution and windows an unchecked run's (the
// windows carry the 3C columns, so that run arms explain too), and the
// explain report an explain-only run's. The engine carries only the checker: a checked build
// and a checked replay must equal the bare engine's and the armed system's
// result.
func TestStackedInstrumentsSelfCheck(t *testing.T) {
	orgs := []struct {
		name string
		org  Org
	}{
		{"dm", Org{ICache: l1(1024, 4, 1, cache.WriteBack, false), DCache: l1(1024, 4, 1, cache.WriteBack, false)}},
		{"2way-alloc", Org{ICache: l1(512, 8, 2, cache.WriteBack, false), DCache: l1(512, 8, 2, cache.WriteBack, true)}},
		{"write-through", Org{ICache: l1(1024, 4, 1, cache.WriteBack, false), DCache: l1(1024, 4, 4, cache.WriteThrough, false)}},
		{"unified", Org{DCache: l1(2048, 4, 2, cache.WriteBack, false), Unified: true}},
	}
	mu3, err := workload.ByName("mu3")
	if err != nil {
		t.Fatal(err)
	}
	tr := mu3.MustGenerate(0.02)
	tm := Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
	chk := &check.Options{Every: 256}
	trc := &simtrace.Options{Attrib: true, IntervalRefs: 1000}
	c3 := &explain.Options{ThreeC: true}

	for _, oc := range orgs {
		// System core.
		base := system.Config{CycleNs: tm.CycleNs, ICache: oc.org.ICache, DCache: oc.org.DCache,
			Unified: oc.org.Unified, WriteBufDepth: tm.WriteBufDepth, Mem: tm.Mem}
		run := func(cfg system.Config) (*system.System, system.Result) {
			t.Helper()
			sys, err := system.New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", oc.name, err)
			}
			res, err := sys.Run(tr)
			if err != nil {
				t.Fatalf("%s: system run: %v", oc.name, err)
			}
			return sys, res
		}
		_, bare := run(base)
		traced := base
		traced.Trace, traced.Explain = trc, c3
		unchecked, _ := run(traced)
		explained := base
		explained.Explain = c3
		explainOnly, _ := run(explained)
		armed := base
		armed.SelfCheck, armed.Trace, armed.Explain = chk, trc, c3
		sys, got := run(armed)
		if got != bare {
			t.Errorf("%s: system counters changed with every instrument armed", oc.name)
		}
		sameTrace(t, oc.name+" system", sys.Recorder(), unchecked.Recorder())
		if !reflect.DeepEqual(sys.Explainer().Report(), explainOnly.Explainer().Report()) {
			t.Errorf("%s: system explain report differs from an explain-only run's", oc.name)
		}

		// Engine core: the checker alone.
		plain, err := BuildProfile(oc.org, tr)
		if err != nil {
			t.Fatalf("%s: %v", oc.name, err)
		}
		prof, err := BuildProfileChecked(oc.org, tr, chk)
		if err != nil {
			t.Fatalf("%s: checked build: %v", oc.name, err)
		}
		if prof.TotalCounters() != plain.TotalCounters() || prof.WarmCounters() != plain.WarmCounters() {
			t.Errorf("%s: profile counters changed with the checker armed", oc.name)
		}
		want, err := plain.Replay(tm)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prof.ReplayChecked(tm, chk)
		if err != nil {
			t.Fatalf("%s: checked replay: %v", oc.name, err)
		}
		if res != want || res != got {
			t.Errorf("%s: checked replay result differs from a bare replay's or the system's", oc.name)
		}
	}
}

// sameTrace fails unless two recorders hold the same attribution, warm
// attribution and interval windows.
func sameTrace(t *testing.T, name string, got, want *simtrace.Recorder) {
	t.Helper()
	if len(want.Windows()) == 0 || want.Attribution().Cycles == 0 {
		t.Fatalf("%s: the reference run recorded nothing; the comparison shows nothing", name)
	}
	if !reflect.DeepEqual(got.Attribution(), want.Attribution()) ||
		!reflect.DeepEqual(got.AttributionWarm(), want.AttributionWarm()) {
		t.Errorf("%s: attribution differs from an unchecked run's\ngot:  %+v\nwant: %+v",
			name, got.Attribution(), want.Attribution())
	}
	if !reflect.DeepEqual(got.Windows(), want.Windows()) {
		t.Errorf("%s: interval windows differ from an unchecked run's", name)
	}
}
