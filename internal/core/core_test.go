package core

import (
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

var sharedExplorer *Explorer

// testExplorer returns an explorer over four workloads spanning both trace
// families, enough signal for the paper-level claims to hold at reduced
// scale.
func testExplorer(t *testing.T) *Explorer {
	t.Helper()
	if sharedExplorer != nil {
		return sharedExplorer
	}
	var traces []*trace.Trace
	for _, name := range []string{"mu3", "mu6", "rd2n4", "rd2n7"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, spec.MustGenerate(0.1))
	}
	e, err := NewExplorer(traces)
	if err != nil {
		t.Fatal(err)
	}
	sharedExplorer = e
	return e
}

func TestNewExplorerValidation(t *testing.T) {
	if _, err := NewExplorer(nil); err == nil {
		t.Fatal("empty trace set accepted")
	}
	bad := &trace.Trace{Name: "bad", Refs: []trace.Ref{{Kind: 9}}}
	if _, err := NewExplorer([]*trace.Trace{bad}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestEvaluateDefaults(t *testing.T) {
	e := testExplorer(t)
	ev, err := e.Evaluate(DesignPoint{TotalKB: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Point.CycleNs != 40 || ev.Point.BlockWords != 4 || ev.Point.Assoc != 1 {
		t.Fatalf("defaults not applied: %+v", ev.Point)
	}
	if ev.ExecNs <= 0 || ev.CyclesPerRef <= 0 || ev.ReadMissRatio <= 0 {
		t.Fatalf("degenerate evaluation: %+v", ev)
	}
	if ev.MissPenaltyCycles != 10 { // Table 2 at 40 ns, 4W blocks
		t.Fatalf("penalty = %d, want 10", ev.MissPenaltyCycles)
	}
}

func TestEvaluateErrors(t *testing.T) {
	e := testExplorer(t)
	if _, err := e.Evaluate(DesignPoint{TotalKB: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := e.Evaluate(DesignPoint{TotalKB: 3}); err == nil {
		t.Fatal("non-power-of-two size accepted")
	}
}

func TestBiggerCacheFasterAtSameCycle(t *testing.T) {
	e := testExplorer(t)
	small, err := e.Evaluate(DesignPoint{TotalKB: 8})
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.Evaluate(DesignPoint{TotalKB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if big.ExecNs >= small.ExecNs {
		t.Fatalf("bigger cache not faster: %.0f >= %.0f", big.ExecNs, small.ExecNs)
	}
	if big.ReadMissRatio >= small.ReadMissRatio {
		t.Fatal("bigger cache missing more")
	}
}

func TestSpeedup(t *testing.T) {
	e := testExplorer(t)
	s, err := e.Speedup(DesignPoint{TotalKB: 128}, DesignPoint{TotalKB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1 {
		t.Fatalf("speedup = %v, want > 1", s)
	}
}

// TestPaperHeadlineExample reproduces the paper's headline conclusion in
// miniature: "a 50ns 64KB machine performs better than a 40ns 16KB
// machine".
func TestPaperHeadlineExample(t *testing.T) {
	e := testExplorer(t)
	s, err := e.Speedup(
		DesignPoint{TotalKB: 64, CycleNs: 50},
		DesignPoint{TotalKB: 16, CycleNs: 40},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1 {
		t.Fatalf("50ns/64KB not faster than 40ns/16KB (speedup %.3f)", s)
	}
}

func TestSlopeNsPerDoubling(t *testing.T) {
	e := testExplorer(t)
	small, err := e.SlopeNsPerDoubling(DesignPoint{TotalKB: 8, CycleNs: 40})
	if err != nil {
		t.Fatal(err)
	}
	large, err := e.SlopeNsPerDoubling(DesignPoint{TotalKB: 512, CycleNs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 {
		t.Fatalf("small-cache slope %.2f not positive", small)
	}
	if large >= small {
		t.Fatalf("slope did not shrink with size: %.2f -> %.2f", small, large)
	}
}

func TestBreakEvenAssociativity(t *testing.T) {
	e := testExplorer(t)
	be, err := e.BreakEvenAssociativityNs(DesignPoint{TotalKB: 64, CycleNs: 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// "Almost uniformly small": a handful of nanoseconds.
	if be < -3 || be > 14 {
		t.Fatalf("break-even %.2f ns implausible", be)
	}
	if _, err := e.BreakEvenAssociativityNs(DesignPoint{TotalKB: 64}, 1); err == nil {
		t.Fatal("set size 1 accepted")
	}
}

func TestOptimalBlockWords(t *testing.T) {
	e := testExplorer(t)
	fitted, binary, err := e.OptimalBlockWords(DesignPoint{TotalKB: 128, CycleNs: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fitted < 2 || fitted > 64 {
		t.Fatalf("fitted optimum %.1f outside plausible range", fitted)
	}
	if binary < 4 || binary > 32 {
		t.Fatalf("binary optimum %d outside plausible range", binary)
	}
	// A custom candidate list is honoured.
	_, binary, err = e.OptimalBlockWords(DesignPoint{TotalKB: 128}, []int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if binary != 4 && binary != 8 && binary != 16 {
		t.Fatalf("binary optimum %d not among candidates", binary)
	}
}

func TestSlowerMemoryRaisesOptimalBlock(t *testing.T) {
	e := testExplorer(t)
	fast, _, err := e.OptimalBlockWords(DesignPoint{TotalKB: 128, Mem: mem.UniformLatency(100, mem.Rate1PerCycle)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := e.OptimalBlockWords(DesignPoint{TotalKB: 128, Mem: mem.UniformLatency(420, mem.Rate1PerCycle)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow < fast {
		t.Fatalf("higher latency lowered the optimal block: %.1f -> %.1f", fast, slow)
	}
}

// TestProfileCacheReuse: the Explorer sits on its Suite's profile cache and
// cell memo. A second cycle time on the same organization builds no new
// profile; two points sharing one cycle-domain timing run a single replay
// per trace; and concurrent callers evaluating a cold organization build
// each of its profiles exactly once.
func TestProfileCacheReuse(t *testing.T) {
	traces := testExplorer(t).Traces()
	if len(traces) != 4 {
		t.Fatal("traces accessor wrong")
	}
	fresh := func() (*Explorer, *obs.Registry) {
		e, err := NewExplorer(traces)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		e.suite.SetExec(experiments.ExecOptions{Metrics: reg})
		return e, reg
	}
	built := func(reg *obs.Registry) int64 { return reg.Counter(obs.MProfilesBuilt).Value() }
	hits := func(reg *obs.Registry) int64 { return reg.Counter(obs.MCellsMemoHits).Value() }
	n := int64(len(traces))

	e, reg := fresh()
	if _, err := e.Evaluate(DesignPoint{TotalKB: 32}); err != nil {
		t.Fatal(err)
	}
	if got := built(reg); got != n {
		t.Fatalf("first evaluation built %d profiles, want %d", got, n)
	}
	// A different cycle time must reuse the cached profiles.
	at60, err := e.Evaluate(DesignPoint{TotalKB: 32, CycleNs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if got := built(reg); got != n {
		t.Fatalf("cycle-time change built %d more profiles", got-n)
	}
	if got := hits(reg); got != 0 {
		t.Fatalf("40 and 60 ns share no cycle-domain timing, yet %d replays were memo hits", got)
	}
	// At 60 and 80 ns the default memory quantizes alike (latency 4,
	// write lag 2, recovery 2 cycles), so 80 ns replays nothing.
	at80, err := e.Evaluate(DesignPoint{TotalKB: 32, CycleNs: 80})
	if err != nil {
		t.Fatal(err)
	}
	if got := hits(reg); got != n {
		t.Fatalf("80 ns after 60 ns: %d memo hits, want one per trace (%d)", got, n)
	}
	if at80.CyclesPerRef != at60.CyclesPerRef || at80.ExecNs <= at60.ExecNs {
		t.Fatalf("shared replay aggregated wrongly: 60 ns %+v, 80 ns %+v", at60, at80)
	}

	// Concurrent callers on a cold organization, each at its own cycle
	// time, build its profiles once between them.
	e, reg = fresh()
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Evaluate(DesignPoint{TotalKB: 64, CycleNs: 20 + 4*g}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := built(reg); got != n {
		t.Fatalf("%d concurrent callers built %d profiles, want %d", callers, got, n)
	}
}
