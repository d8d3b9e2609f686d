package system

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/explain"
	"repro/internal/simtrace"
	"repro/internal/workload"
)

// TestDisarmedInstrumentsTakeTheOffPath pins the contract the overhead
// gates time, exactly: a run handed Options that arm nothing is the run
// that was handed no Options. It holds no simtrace recorder and no explain
// recorder, drives both L1 caches bare (no decorator stack), allocates the
// same number of times and returns the same result.
func TestDisarmedInstrumentsTakeTheOffPath(t *testing.T) {
	tr := workload.Random(3000, 1<<14, 0.4, 31)
	tr.WarmStart = 1000
	base := smallConfig()
	arms := []struct {
		name string
		set  func(*Config)
	}{
		{"simtrace", func(c *Config) { c.Trace = &simtrace.Options{} }},
		{"explain", func(c *Config) { c.Explain = &explain.Options{} }},
		{"both", func(c *Config) { c.Trace, c.Explain = &simtrace.Options{}, &explain.Options{} }},
	}
	simulate := func(cfg Config) (*System, Result) {
		t.Helper()
		s := MustNew(cfg)
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return s, res
	}
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := MustNew(cfg).Run(tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	_, want := simulate(base)
	wantAllocs := allocs(base)
	for _, a := range arms {
		cfg := base
		a.set(&cfg)
		s, got := simulate(cfg)
		if s.Recorder() != nil || s.Explainer() != nil {
			t.Errorf("%s: disarmed Options attached a recorder (simtrace %v, explain %v)",
				a.name, s.Recorder() != nil, s.Explainer() != nil)
		}
		for side, c := range map[string]cache.Interface{"I": s.icache, "D": s.dcache} {
			if _, bare := c.(*cache.Cache); !bare {
				t.Errorf("%s: L1 %s is driven through %T, not the bare cache", a.name, side, c)
			}
		}
		l1, err := NewL1(cfg.ICache, cfg.DCache, cfg.Unified, tr.Name, cfg.SelfCheck, explain.Attach(cfg.Explain))
		if err != nil {
			t.Fatal(err)
		}
		if l1.I.Stack != nil || l1.D.Stack != nil {
			t.Errorf("%s: disarmed Options stacked a decorator on L1", a.name)
		}
		if n := allocs(cfg); n != wantAllocs {
			t.Errorf("%s: %v allocations per New+Run, %v with no Options", a.name, n, wantAllocs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs from a run with no Options", a.name)
		}
	}
}
