package system

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/simtrace"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runAttrib runs cfg with cycle attribution armed and returns the
// recorder's view next to the ordinary result.
func runAttrib(t *testing.T, cfg Config, tr *trace.Trace) (*System, Result) {
	t.Helper()
	cfg.Trace = &simtrace.Options{Attrib: true}
	sys := MustNew(cfg)
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// attribConfigs enumerates the configuration corners the carving logic
// has to survive: every write policy, a bufferless system, both partial
// fetch policies, a unified cache, and one- and two-level hierarchies.
func attribConfigs() map[string]Config {
	l2 := L2Config{
		Cache: cache.Config{SizeWords: 1 << 14, BlockWords: 16, Assoc: 1,
			Replacement: cache.Random, WritePolicy: cache.WriteBack,
			WriteAllocate: true, Seed: 5},
		AccessCycles:  3,
		WriteBufDepth: 4,
	}
	l3 := L2Config{
		Cache: cache.Config{SizeWords: 1 << 16, BlockWords: 16, Assoc: 2,
			Replacement: cache.Random, WritePolicy: cache.WriteBack,
			WriteAllocate: true, Seed: 7},
		AccessCycles:  9,
		WriteBufDepth: 2,
	}

	cfgs := make(map[string]Config)
	cfgs["base"] = smallConfig()

	wt := smallConfig()
	wt.DCache.WritePolicy = cache.WriteThrough
	cfgs["write-through"] = wt

	wa := smallConfig()
	wa.DCache.WriteAllocate = true
	cfgs["write-allocate"] = wa

	nobuf := smallConfig()
	nobuf.WriteBufDepth = 0
	cfgs["no-buffer"] = nobuf

	early := smallConfig()
	early.ICache.BlockWords = 32
	early.DCache.BlockWords = 32
	early.Fetch = EarlyContinue
	cfgs["early-continue"] = early

	fwd := early
	fwd.Fetch = LoadForward
	cfgs["load-forward"] = fwd

	uni := smallConfig()
	uni.Unified = true
	cfgs["unified"] = uni

	withL2 := smallConfig()
	withL2.L2 = &l2
	cfgs["l2"] = withL2

	deep := smallConfig()
	deep.Levels = []L2Config{l2, l3}
	cfgs["l2+l3"] = deep
	return cfgs
}

// TestAttributionConservation checks the core contract on every
// configuration corner: components sum exactly to the cycle count, for
// the whole run and for the warm window, and no warm component is
// negative (buckets only grow).
func TestAttributionConservation(t *testing.T) {
	tr := workload.Random(6000, 1<<14, 0.3, 17)
	tr.WarmStart = 3000
	for name, cfg := range attribConfigs() {
		t.Run(name, func(t *testing.T) {
			sys, res := runAttrib(t, cfg, tr)
			a := sys.Recorder().Attribution()
			if err := a.Check(); err != nil {
				t.Fatal(err)
			}
			if a.Cycles != res.Total.Cycles {
				t.Fatalf("attribution covers %d cycles, simulator counted %d",
					a.Cycles, res.Total.Cycles)
			}
			w := sys.Recorder().AttributionWarm()
			if w.Cycles != res.Warm.Cycles {
				t.Fatalf("warm attribution covers %d cycles, warm window has %d",
					w.Cycles, res.Warm.Cycles)
			}
			if err := w.Check(); err != nil {
				t.Fatalf("warm window: %v", err)
			}
			for _, comp := range w.Components() {
				if comp.Cycles < 0 {
					t.Fatalf("warm component %s is negative: %d", comp.Name, comp.Cycles)
				}
			}
			if a.BaseIssue != res.Total.Couplets {
				t.Fatalf("base issue %d != couplets %d", a.BaseIssue, res.Total.Couplets)
			}
		})
	}
}

// TestAttributionReconstructsCounters ties the carved buckets back to the
// simulator's own counters: the memory-side buckets cannot exceed the
// memory unit's wait total, the buffer stall bucket cannot exceed the
// buffers' stall total, and on the base configuration (where every read
// wait is CPU-visible) they match exactly.
func TestAttributionReconstructsCounters(t *testing.T) {
	tr := workload.Random(6000, 1<<14, 0.3, 17)
	for name, cfg := range attribConfigs() {
		t.Run(name, func(t *testing.T) {
			sys, res := runAttrib(t, cfg, tr)
			a := sys.Recorder().Attribution()
			memSide := a.MemWait + a.MemRecovery + a.BufMatchWait
			if memSide > res.Total.MemWaitCycles {
				t.Fatalf("attributed memory wait %d exceeds counter %d",
					memSide, res.Total.MemWaitCycles)
			}
			if a.BufFullStall > res.Total.BufFullStallCycles {
				t.Fatalf("attributed buffer stall %d exceeds counter %d",
					a.BufFullStall, res.Total.BufFullStallCycles)
			}
		})
	}

	// On the base configuration every full-buffer stall is CPU-visible,
	// so the bucket reconstructs the counter exactly.
	cfg := smallConfig()
	cfg.DCache.WritePolicy = cache.WriteThrough
	cfg.WriteBufDepth = 1
	sys, res := runAttrib(t, cfg, workload.Random(6000, 1<<14, 0.5, 3))
	a := sys.Recorder().Attribution()
	if res.Total.BufFullStallCycles == 0 {
		t.Fatal("workload produced no buffer stalls; test is vacuous")
	}
	if a.BufFullStall != res.Total.BufFullStallCycles {
		t.Fatalf("buffer stall bucket %d != counter %d",
			a.BufFullStall, res.Total.BufFullStallCycles)
	}
}

// TestAttributionMultilevel checks the per-level service buckets: one per
// configured level, populated for each, summing (with everything else) to
// the cycle total, and absent entirely on single-level systems.
func TestAttributionMultilevel(t *testing.T) {
	cfgs := attribConfigs()
	tr := workload.Random(8000, 1<<15, 0.25, 23)
	tr.WarmStart = 4000

	sys, _ := runAttrib(t, cfgs["l2+l3"], tr)
	a := sys.Recorder().Attribution()
	if len(a.LevelService) != 2 {
		t.Fatalf("level buckets = %d, want 2", len(a.LevelService))
	}
	for i, v := range a.LevelService {
		if v <= 0 {
			t.Fatalf("L%d service bucket empty (%d)", i+2, v)
		}
	}
	w := sys.Recorder().AttributionWarm()
	if err := w.Check(); err != nil {
		t.Fatalf("warm window: %v", err)
	}
	names := make(map[string]bool)
	for _, comp := range a.Components() {
		names[comp.Name] = true
	}
	if !names["l2_service"] || !names["l3_service"] {
		t.Fatalf("component names missing level entries: %v", names)
	}

	single, _ := runAttrib(t, cfgs["base"], tr)
	if got := single.Recorder().Attribution().LevelService; len(got) != 0 {
		t.Fatalf("single-level run grew level buckets: %v", got)
	}
}

// TestAttributionDegenerateWarm: a warm boundary inside the final couplet
// is never crossed by the couplet loop, so the warm window degenerates to
// empty; the warm attribution must match the zeroed warm counters.
func TestAttributionDegenerateWarm(t *testing.T) {
	tr := &trace.Trace{Name: "degenerate", Refs: []trace.Ref{
		{Addr: 0, Kind: trace.Load},
		{Addr: 4, Kind: trace.Ifetch},
		{Addr: 8, Kind: trace.Load}, // rides the ifetch couplet
	}}
	tr.WarmStart = 2 // points at the load inside the final couplet
	sys, res := runAttrib(t, smallConfig(), tr)
	if res.Warm.Refs != 0 {
		t.Fatalf("warm window not degenerate: %d refs", res.Warm.Refs)
	}
	w := sys.Recorder().AttributionWarm()
	if w.Cycles != res.Warm.Cycles {
		t.Fatalf("degenerate warm attribution covers %d cycles, counters say %d",
			w.Cycles, res.Warm.Cycles)
	}
	if err := w.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAttributionOffIsAbsent: an unarmed system exposes no recorder and
// behaves identically (spot-checked on the cycle count).
func TestAttributionOffIsAbsent(t *testing.T) {
	cfg := smallConfig()
	tr := workload.Random(3000, 1<<14, 0.3, 13)
	plain := MustNew(cfg)
	res, err := plain.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Recorder() != nil {
		t.Fatal("recorder exists without Trace options")
	}
	sys, traced := runAttrib(t, cfg, tr)
	if traced.Total != res.Total {
		t.Fatal("arming attribution changed simulation results")
	}
	_ = sys
}

// TestIntervalWindowsFromSystem runs the interval instrument end to end:
// windows cover the whole run back to back, reference counts line up, and
// the final cumulative window state matches the run totals.
func TestIntervalWindowsFromSystem(t *testing.T) {
	cfg := smallConfig()
	cfg.Trace = &simtrace.Options{IntervalRefs: 500}
	sys := MustNew(cfg)
	tr := workload.Random(4000, 1<<14, 0.3, 29)
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.Recorder().Windows()
	if len(ws) < 7 {
		t.Fatalf("got %d windows for 4000 refs every 500", len(ws))
	}
	prevRef, prevCycle := int64(0), int64(0)
	for _, w := range ws {
		if w.StartRef != prevRef || w.StartCycle != prevCycle {
			t.Fatalf("window %d does not abut its predecessor: %+v", w.Index, w)
		}
		if w.EndRef <= w.StartRef || w.EndCycle <= w.StartCycle {
			t.Fatalf("window %d is empty or reversed: %+v", w.Index, w)
		}
		prevRef, prevCycle = w.EndRef, w.EndCycle
	}
	last := ws[len(ws)-1]
	if last.EndRef != res.Total.Refs || last.EndCycle != res.Total.Cycles {
		t.Fatalf("windows end at ref %d cycle %d, run ended at %d/%d",
			last.EndRef, last.EndCycle, res.Total.Refs, res.Total.Cycles)
	}
}

// TestCountersSubReflect exercises the reflection-based subtraction: every
// field participates, verified against a couple of hand-set fields and a
// round trip through a real run snapshot.
func TestCountersSubReflect(t *testing.T) {
	var a, b Counters
	a.Cycles, b.Cycles = 100, 40
	a.LoadMisses, b.LoadMisses = 7, 2
	a.L2Reads, b.L2Reads = 9, 9
	d := a.Sub(b)
	if d.Cycles != 60 || d.LoadMisses != 5 || d.L2Reads != 0 {
		t.Fatalf("sub = %+v", d)
	}
	// Total - warm must reproduce the cold prefix for every field: run a
	// warm-started trace and check one derived identity per side.
	tr := workload.Random(3000, 1<<13, 0.3, 11)
	tr.WarmStart = 1500
	res := run(t, smallConfig(), tr)
	cold := res.Total.Sub(res.Warm)
	if cold.Refs+res.Warm.Refs != res.Total.Refs {
		t.Fatal("refs do not partition")
	}
	if cold.Cycles != res.Total.Cycles-res.Warm.Cycles {
		t.Fatal("cycles do not partition")
	}
	if cold.Couplets <= 0 {
		t.Fatal("cold window empty; warm boundary not exercised")
	}
}
