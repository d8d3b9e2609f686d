package perfobs

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/perfobs/pproftest"
	"repro/internal/system"
	"repro/internal/workload"
)

func TestCaptureStartStop(t *testing.T) {
	dir := t.TempDir()
	prevRate := runtime.MemProfileRate
	c, err := Start(dir, "run1")
	if err != nil {
		t.Fatal(err)
	}
	// Heap sampling runs at the repository's rate only while armed.
	if runtime.MemProfileRate != DefaultMemProfileRate {
		t.Errorf("armed MemProfileRate = %d, want %d", runtime.MemProfileRate, DefaultMemProfileRate)
	}
	// The CPU profiler is process-global: a second capture must refuse.
	if _, err := Start(dir, "run2"); !errors.Is(err, ErrBusy) {
		t.Fatalf("second Start = %v, want ErrBusy", err)
	}
	// Allocate something attributable while the capture is armed.
	waste := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		waste = append(waste, make([]byte, 64<<10))
	}
	_ = waste
	sum, err := c.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != prevRate {
		t.Errorf("MemProfileRate after Stop = %d, want %d", runtime.MemProfileRate, prevRate)
	}
	if sum.CPUBytes <= 0 || sum.HeapBytes <= 0 {
		t.Fatalf("summary = %+v, want both profiles written", sum)
	}
	for _, path := range []string{sum.CPUPath, sum.HeapPath} {
		pproftest.RequireDecodes(t, path)
	}
	// Stopped: the profiler is free again.
	c2, err := Start(dir, "run3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Stop(); err != nil {
		t.Fatal(err)
	}
	// A second sequential Stop is a tolerated no-op.
	if _, err := c2.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestPruneRetention(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		sub := filepath.Join(dir, string(rune('a'+i)))
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		mod := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(sub, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file must survive pruning.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := Prune(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"d", "e", "notes.txt"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("survivors = %v, want %v", names, want)
	}
}

// flagged returns the deltas DiffShares marked as regressions.
func flagged(deltas []FuncDelta) []FuncDelta {
	var out []FuncDelta
	for _, fd := range deltas {
		if fd.Regression {
			out = append(out, fd)
		}
	}
	return out
}

func TestDiffSharesShareGrowth(t *testing.T) {
	oldS := []FuncShare{{"gen", 70 << 10, 70}, {"sim", 30 << 10, 30}}
	newS := []FuncShare{{"gen", 58 << 10, 58}, {"sim", 42 << 10, 42}}
	regs := flagged(DiffShares(oldS, newS, nil, Thresholds{}))
	if len(regs) != 1 || regs[0].Func != "sim" {
		t.Fatalf("regressions = %+v, want just sim", regs)
	}
	if regs[0].DeltaPts != 12 {
		t.Fatalf("sim delta = %v pts, want 12", regs[0].DeltaPts)
	}
}

func TestDiffSharesNewHotComponent(t *testing.T) {
	oldS := []FuncShare{{"gen", 100 << 10, 100}}
	newS := []FuncShare{{"gen", 60 << 10, 60}, {"leak", 40 << 10, 40}}
	var hit *FuncDelta
	d := DiffShares(oldS, newS, nil, Thresholds{})
	for i := range d {
		if d[i].Func == "leak" {
			hit = &d[i]
		}
	}
	if hit == nil || !hit.New || !hit.Regression {
		t.Fatalf("leak delta = %+v, want flagged as new hot component", hit)
	}
	// The same newcomer below the floor is churn, not a regression.
	small := []FuncShare{{"gen", 95 << 10, 95}, {"tiny", 5 << 10, 5}}
	if regs := flagged(DiffShares(oldS, small, nil, Thresholds{})); len(regs) != 0 {
		t.Fatalf("small newcomer flagged: %+v", regs)
	}
}

func TestDiffSharesNoiseWidensThreshold(t *testing.T) {
	// History shows "gen" wobbling several points between identical runs;
	// the same wobble again must not flag, though it exceeds the 5-point
	// tolerance alone.
	history := [][]FuncShare{
		{{"gen", 0, 60}, {"sim", 0, 40}},
		{{"gen", 0, 68}, {"sim", 0, 32}},
		{{"gen", 0, 61}, {"sim", 0, 39}},
	}
	oldS := []FuncShare{{"gen", 0, 60}, {"sim", 0, 40}}
	newS := []FuncShare{{"gen", 0, 67}, {"sim", 0, 33}}
	if regs := flagged(DiffShares(oldS, newS, history, Thresholds{})); len(regs) != 0 {
		t.Fatalf("historically noisy wobble flagged: %+v", regs)
	}
	// Without that history the same delta flags.
	if regs := flagged(DiffShares(oldS, newS, nil, Thresholds{})); len(regs) != 1 || regs[0].Func != "gen" {
		t.Fatalf("no-history regressions = %+v, want gen", regs)
	}
}

func TestReadRuntimeStats(t *testing.T) {
	// The /gc/heap/allocs totals are flushed on GC; when test shuffling
	// runs this test first, the process may not have GC'd yet and the
	// counters legitimately read zero. Allocate and collect so there is
	// something to observe.
	waste := make([][]byte, 0, 8)
	for i := 0; i < 8; i++ {
		waste = append(waste, make([]byte, 128<<10))
	}
	_ = waste
	runtime.GC()
	st := ReadRuntimeStats()
	if st.AllocBytes == 0 || st.AllocObjects == 0 {
		t.Fatalf("alloc totals zero: %+v", st)
	}
	if st.HeapGoalBytes == 0 {
		t.Fatalf("heap goal zero: %+v", st)
	}
}

func TestPhaseSamplerDeltas(t *testing.T) {
	s := NewPhaseSampler()
	s.Mark("generate")
	sink := make([][]byte, 0, 32)
	for i := 0; i < 32; i++ {
		sink = append(sink, make([]byte, 256<<10))
	}
	_ = sink
	s.Mark("simulate")
	phases := s.Finish()
	if len(phases) != 2 {
		t.Fatalf("phases = %+v, want 2", phases)
	}
	if phases[0].Name != "generate" || phases[1].Name != "simulate" {
		t.Fatalf("phase order = %+v", phases)
	}
	if phases[0].AllocBytes < 32*(256<<10) {
		t.Fatalf("generate phase missed its allocations: %+v", phases[0])
	}
	if again := s.Finish(); len(again) != 0 {
		t.Fatalf("second Finish = %+v, want empty", again)
	}
}

// TestPhaseSamplerWallClock: the sampler is the run's phase clock. Each
// phase's wall time runs from its mark to the next, Phases reads them up
// to now without closing the open phase, and Finish closes it.
func TestPhaseSamplerWallClock(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewPhaseSampler()
	s.Clock = func() time.Time { return now }
	if s.Current() != "" || len(s.Phases()) != 0 {
		t.Fatalf("fresh sampler: current %q, phases %+v", s.Current(), s.Phases())
	}
	s.Mark("generate")
	now = now.Add(3 * time.Second)
	s.Mark("fig3-1")
	now = now.Add(7 * time.Second)
	snap := s.Phases()
	if len(snap) != 2 || snap[0].Wall != 3*time.Second || snap[1].Wall != 7*time.Second {
		t.Fatalf("Phases = %+v, want generate 3s, fig3-1 7s", snap)
	}
	if s.Current() != "fig3-1" {
		t.Fatalf("Phases closed the open phase: current %q", s.Current())
	}
	now = now.Add(time.Second)
	done := s.Finish()
	if len(done) != 2 || done[1].Name != "fig3-1" || done[1].Wall != 8*time.Second {
		t.Fatalf("Finish = %+v, want fig3-1 at 8s", done)
	}
	if s.Current() != "" {
		t.Fatalf("Finish left %q open", s.Current())
	}
}

// TestPhaseSamplerConcurrent: marks, snapshots and the open-phase name are
// read from several goroutines at once, as a progress reporter reads a
// run's clock while the run marks it.
func TestPhaseSamplerConcurrent(t *testing.T) {
	s := NewPhaseSampler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Mark("p")
				_ = s.Current()
				_ = s.Phases()
			}
		}()
	}
	wg.Wait()
	if got := len(s.Finish()); got != 200 {
		t.Fatalf("Finish = %d phases, want one per mark (200)", got)
	}
}

// TestProfilingBitIdentical is the acceptance check that capture changes
// nothing about simulation results: the same workload simulated with a
// capture armed and without is reflect.DeepEqual.
func TestProfilingBitIdentical(t *testing.T) {
	spec, err := workload.ByName("mu3")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Generate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Default().System()
	if err != nil {
		t.Fatal(err)
	}
	simulate := func() system.Result {
		sys, err := system.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := simulate()
	c, err := Start(t.TempDir(), "bitident")
	if err != nil {
		t.Fatal(err)
	}
	profiled := simulate()
	if _, err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	afterward := simulate()

	if !reflect.DeepEqual(plain, profiled) {
		t.Fatalf("results diverge under profiling:\n  plain:    %+v\n  profiled: %+v", plain, profiled)
	}
	if !reflect.DeepEqual(plain, afterward) {
		t.Fatalf("results diverge after profiling:\n  plain: %+v\n  after: %+v", plain, afterward)
	}
}

// TestNoiseRule: one rule serves both units. The threshold is the
// tolerance until observed noise times the multiplier exceeds it, zero
// fields take the defaults, and the noise estimates need two samples (and,
// relative, a non-zero mean).
func TestNoiseRule(t *testing.T) {
	if th, reg := (Thresholds{}).Judge(5.5, 1); th != 5 || !reg {
		t.Errorf("default rule on 5.5 with noise 1 = %v, %v; want 5, true", th, reg)
	}
	if th, reg := (Thresholds{}).Judge(5.5, 2); th != 6 || reg {
		t.Errorf("noise 2 widens to %v (regression %v); want 6, false", th, reg)
	}
	if th, reg := (Thresholds{Tolerance: 10, NoiseMult: 0.0001}).Judge(-20, 50); th != 10 || reg {
		t.Errorf("an improvement never flags: %v, %v", th, reg)
	}
	if got, _ := SampleSD([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138) > 0.001 {
		t.Errorf("SampleSD = %v, want ~2.138", got)
	}
	if sd, _ := SampleSD([]float64{3}); sd != 0 || RelNoisePct([]float64{-1, 1}) != 0 {
		t.Error("noise without two samples or with a zero mean must be 0")
	}
	if got := RelNoisePct([]float64{90, 110}); math.Abs(got-14.142) > 0.001 {
		t.Errorf("RelNoisePct = %v, want ~14.142", got)
	}
}
