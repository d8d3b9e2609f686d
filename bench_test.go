// Benchmark harness: ablation benchmarks for the design choices called out
// in DESIGN.md, throughput microbenchmarks for the simulators themselves
// (the four allocgate compares among them), the engine-versus-reference
// pair, the facade quickstart and the off/on overhead pairs the overhead
// gates run.
//
// The paper's figures are not benchmarked here: a figure benchmark over a
// shared, memoizing Suite measured its cache state rather than work. The
// benchmark/ harness times the whole reproduction cold (figures-cold),
// and TestPaperGoldens pins every driver's output.
package cachetime_test

import (
	"path/filepath"
	"syscall"
	"testing"

	cachetime "repro"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/mem"
	"repro/internal/perfobs"
	"repro/internal/simtrace"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchScale keeps the full benchmark sweep tractable while preserving the
// workloads' footprints; EXPERIMENTS.md records results at larger scales.
const benchScale = 0.08

func BenchmarkTable1Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces := workload.MustGenerateAll(benchScale)
		refs := 0
		for _, t := range traces {
			refs += t.Len()
		}
		b.ReportMetric(float64(refs), "refs")
	}
}

func BenchmarkTable2MemoryCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if rows[0].ReadCycles != 14 {
			b.Fatal("table 2 wrong")
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

func ablationTrace(b *testing.B) *trace.Trace {
	b.Helper()
	spec, err := workload.ByName("mu3")
	if err != nil {
		b.Fatal(err)
	}
	return spec.MustGenerate(benchScale)
}

func ablationConfig(mutate func(*system.Config)) system.Config {
	cfg := system.DefaultConfig()
	cfg.ICache.SizeWords = 4096 // 16 KB per side: misses matter
	cfg.DCache.SizeWords = 4096
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func runAblation(b *testing.B, tr *trace.Trace, cfg system.Config) {
	b.Helper()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := system.Simulate(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Warm.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

func BenchmarkAblationReplacement(b *testing.B) {
	tr := ablationTrace(b)
	for _, pol := range []cache.Replacement{cache.Random, cache.LRU, cache.FIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			runAblation(b, tr, ablationConfig(func(c *system.Config) {
				c.ICache.Replacement = pol
				c.DCache.Replacement = pol
			}))
		})
	}
}

func BenchmarkAblationWriteBuffer(b *testing.B) {
	tr := ablationTrace(b)
	for _, depth := range []int{0, 1, 4, 16} {
		b.Run(depthName(depth), func(b *testing.B) {
			runAblation(b, tr, ablationConfig(func(c *system.Config) {
				c.WriteBufDepth = depth
			}))
		})
	}
}

func depthName(d int) string {
	return map[int]string{0: "none", 1: "one", 4: "four", 16: "sixteen"}[d]
}

func BenchmarkAblationWriteAllocate(b *testing.B) {
	tr := ablationTrace(b)
	for _, alloc := range []bool{false, true} {
		name := "no-allocate"
		if alloc {
			name = "write-allocate"
		}
		b.Run(name, func(b *testing.B) {
			runAblation(b, tr, ablationConfig(func(c *system.Config) {
				c.DCache.WriteAllocate = alloc
			}))
		})
	}
}

func BenchmarkAblationFetchPolicy(b *testing.B) {
	tr := ablationTrace(b)
	for _, fp := range []system.FetchPolicy{system.FetchWholeBlock, system.EarlyContinue, system.LoadForward} {
		b.Run(fp.String(), func(b *testing.B) {
			runAblation(b, tr, ablationConfig(func(c *system.Config) {
				c.ICache.BlockWords = 16
				c.DCache.BlockWords = 16
				c.Fetch = fp
			}))
		})
	}
}

func BenchmarkAblationTraceFamily(b *testing.B) {
	for _, name := range []string{"mu3", "rd2n4"} {
		spec, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		tr := spec.MustGenerate(benchScale)
		b.Run(spec.Family.String(), func(b *testing.B) {
			runAblation(b, tr, ablationConfig(nil))
		})
	}
}

// BenchmarkEngineVsReference compares the two simulation strategies on an
// identical task: pricing one organization at 16 cycle times.
func BenchmarkEngineVsReference(b *testing.B) {
	tr := ablationTrace(b)
	cfg := ablationConfig(nil)
	org := engine.Org{ICache: cfg.ICache, DCache: cfg.DCache}
	cycles := []int{20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68, 72, 76, 80}

	b.Run("two-phase-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prof, err := engine.BuildProfile(org, tr)
			if err != nil {
				b.Fatal(err)
			}
			for _, cy := range cycles {
				if _, err := prof.Replay(engine.Timing{CycleNs: cy, Mem: mem.DefaultConfig(), WriteBufDepth: 4}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("single-phase-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cy := range cycles {
				c := cfg
				c.CycleNs = cy
				if _, err := system.Simulate(c, tr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSimtraceOverhead guards the cost of the in-run instrumentation
// layer: "absent" runs with no Options at all (the nil fast path every
// uninstrumented run takes), "disabled" with an Options that arms nothing
// (which attaches no recorder, so it runs the identical code), and the
// remaining variants with each instrument on. `make attrib` holds
// absent-vs-disabled within 2% on cpu-ns/op, as explaingate does for
// BenchmarkExplainOverhead; the armed variants are reported, not gated.
func BenchmarkSimtraceOverhead(b *testing.B) {
	tr := ablationTrace(b)
	cases := []struct {
		name string
		opts *simtrace.Options
	}{
		{"absent", nil},
		{"disabled", &simtrace.Options{}},
		{"attrib", &simtrace.Options{Attrib: true}},
		{"events", &simtrace.Options{Events: true}},
		{"full", &simtrace.Options{Attrib: true, IntervalRefs: 10000, Events: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := ablationConfig(func(cfg *system.Config) { cfg.Trace = c.opts })
			start := cpuTime(b)
			for i := 0; i < b.N; i++ {
				if _, err := system.Simulate(cfg, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cpuTime(b)-start)/float64(b.N), "cpu-ns/op")
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkExplainOverhead guards the cost of the explainability recorder
// the same way BenchmarkSimtraceOverhead guards simtrace: "absent" is the
// nil fast path every unexplained run takes, "disabled" a config with a
// zero-valued (disarmed) Options, and the remaining variants arm each
// instrument. `make explaingate` holds absent-vs-disabled within 2% on
// cpu-ns/op (from getrusage, like ProfileOverhead — the unexplained path's
// cost is CPU work, and wall time on a shared runner absorbs stalls that
// land unevenly); the armed variants are reported, not gated — shadow
// simulation has an inherent cost, the contract is only that nobody pays
// it by default.
func BenchmarkExplainOverhead(b *testing.B) {
	tr := ablationTrace(b)
	cases := []struct {
		name string
		opts *explain.Options
	}{
		{"absent", nil},
		{"disabled", &explain.Options{}},
		{"threec", &explain.Options{ThreeC: true}},
		{"reuse", &explain.Options{Reuse: true}},
		{"full", func() *explain.Options { o := explain.All(); return &o }()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := ablationConfig(func(cfg *system.Config) { cfg.Explain = c.opts })
			start := cpuTime(b)
			for i := 0; i < b.N; i++ {
				if _, err := system.Simulate(cfg, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cpuTime(b)-start)/float64(b.N), "cpu-ns/op")
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// --- Throughput microbenchmarks ---

func BenchmarkBehavioralPass(b *testing.B) {
	tr := ablationTrace(b)
	cfg := ablationConfig(nil)
	org := engine.Org{ICache: cfg.ICache, DCache: cfg.DCache}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.BuildProfile(org, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkTimingReplay(b *testing.B) {
	tr := ablationTrace(b)
	cfg := ablationConfig(nil)
	prof, err := engine.BuildProfile(engine.Org{ICache: cfg.ICache, DCache: cfg.DCache}, tr)
	if err != nil {
		b.Fatal(err)
	}
	tm := engine.Timing{CycleNs: 40, Mem: mem.DefaultConfig(), WriteBufDepth: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prof.Replay(tm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystemSimulator(b *testing.B) {
	tr := ablationTrace(b)
	cfg := ablationConfig(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := system.Simulate(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkFacadeQuickstart exercises the public API end to end, the way a
// downstream user would.
func BenchmarkFacadeQuickstart(b *testing.B) {
	spec, err := cachetime.WorkloadByName("savec")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.MustGenerate(benchScale)
	explorer, err := cachetime.NewExplorer([]*cachetime.Trace{tr})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explorer.Evaluate(cachetime.DesignPoint{TotalKB: 64, CycleNs: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileOverhead measures the steady-state tax of running the
// simulator under an armed perfobs capture — CPU profiler sampling at 100 Hz
// and the heap profiler at the observatory's denser 16 KiB sampling rate —
// against the same work unprofiled. The capture brackets the whole measured
// loop the way `-profile` brackets a whole run; its fixed start/stop cost
// (profiler flush, forced GC for the heap snapshot — ~0.2 s once per run,
// independent of run length) sits outside the timer like any other harness
// setup.
//
// Besides wall time it reports cpu-ns/op from getrusage: profiling overhead
// is CPU work (SIGPROF handling, malloc sampling), while wall time on a
// shared runner also absorbs scheduler stalls and cgroup throttling that
// hit one sub-benchmark and not the other. The off/on pair repeats three
// times back to back (off, on, off#01, on#01, …) so every off sample has an
// on sample taken seconds away under the same machine conditions —
// `make profilegate` folds the repeats together (bench2json -best) and
// gates cpu-ns/op (-fail-metrics) for the ≤2% overhead budget.
func BenchmarkProfileOverhead(b *testing.B) {
	tr := ablationTrace(b)
	cfg := ablationConfig(nil)
	for rep := 0; rep < 3; rep++ {
		for _, mode := range []struct {
			name    string
			profile bool
		}{{"off", false}, {"on", true}} {
			b.Run(mode.name, func(b *testing.B) {
				var capt *perfobs.Capture
				if mode.profile {
					var err error
					capt, err = perfobs.Start(filepath.Join(b.TempDir(), "profiles"), "bench")
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				start := cpuTime(b)
				for i := 0; i < b.N; i++ {
					if _, err := system.Simulate(cfg, tr); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cpuTime(b)-start)/float64(b.N), "cpu-ns/op")
				b.StopTimer()
				if capt != nil {
					if _, err := capt.Stop(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// cpuTime returns the process's cumulative user+system CPU time in
// nanoseconds.
func cpuTime(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
