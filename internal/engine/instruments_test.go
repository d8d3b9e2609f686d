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

// TestStackedInstrumentsSelfCheck arms all three instruments at once —
// the lockstep checker, simtrace attribution and events, and every explain
// instrument — so each L1 runs the full decorator stack (real cache, then
// check.Shadow, then explain.Probe) in both cores. The checker must report
// no divergence, the counters must equal a bare run's, the attribution and
// events a trace-only run's, and the explain report an explain-only run's.
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
	trc := &simtrace.Options{Attrib: true, Events: true}
	all := explain.All()

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
		traced.Trace = trc
		traceOnly, _ := run(traced)
		explained := base
		explained.Explain = &all
		explainOnly, _ := run(explained)
		armed := base
		armed.SelfCheck, armed.Trace, armed.Explain = chk, trc, &all
		sys, got := run(armed)
		if got != bare {
			t.Errorf("%s: system counters changed with every instrument armed", oc.name)
		}
		sameTrace(t, oc.name+" system", sys.Recorder(), traceOnly.Recorder())
		if !reflect.DeepEqual(sys.Explainer().Report(), explainOnly.Explainer().Report()) {
			t.Errorf("%s: system explain report differs from an explain-only run's", oc.name)
		}

		// Engine core.
		plain, err := BuildProfile(oc.org, tr)
		if err != nil {
			t.Fatalf("%s: %v", oc.name, err)
		}
		expOnly := explain.New(all)
		if _, err := BuildProfileExplained(oc.org, tr, nil, expOnly); err != nil {
			t.Fatalf("%s: %v", oc.name, err)
		}
		exp := explain.New(all)
		prof, err := BuildProfileExplained(oc.org, tr, chk, exp)
		if err != nil {
			t.Fatalf("%s: build with every instrument armed: %v", oc.name, err)
		}
		if prof.TotalCounters() != plain.TotalCounters() || prof.WarmCounters() != plain.WarmCounters() {
			t.Errorf("%s: profile counters changed with every instrument armed", oc.name)
		}
		if !reflect.DeepEqual(exp.Report(), expOnly.Report()) {
			t.Errorf("%s: engine explain report differs from an explain-only build's", oc.name)
		}
		want, err := plain.Replay(tm)
		if err != nil {
			t.Fatal(err)
		}
		recOnly := simtrace.New(*trc)
		if _, err := plain.ReplayTraced(tm, nil, recOnly); err != nil {
			t.Fatal(err)
		}
		rec := simtrace.New(*trc)
		res, err := prof.ReplayTraced(tm, chk, rec)
		if err != nil {
			t.Fatalf("%s: replay with every instrument armed: %v", oc.name, err)
		}
		if res != want || res != got {
			t.Errorf("%s: replay result differs from a bare replay's or the system's", oc.name)
		}
		sameTrace(t, oc.name+" engine", rec, recOnly)
	}
}

// sameTrace fails unless two recorders hold the same attribution, warm
// attribution and event timeline.
func sameTrace(t *testing.T, name string, got, want *simtrace.Recorder) {
	t.Helper()
	if len(want.Events()) == 0 || want.Attribution().Cycles == 0 {
		t.Fatalf("%s: the trace-only run recorded nothing; the comparison shows nothing", name)
	}
	if !reflect.DeepEqual(got.Attribution(), want.Attribution()) ||
		!reflect.DeepEqual(got.AttributionWarm(), want.AttributionWarm()) {
		t.Errorf("%s: attribution differs from a trace-only run's\ngot:  %+v\nwant: %+v",
			name, got.Attribution(), want.Attribution())
	}
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Errorf("%s: event timeline differs from a trace-only run's", name)
	}
}
