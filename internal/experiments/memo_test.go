package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// TestCellMemoSingleFlight: concurrent sweeps whose cells share keys, within
// and across sweeps, compute each distinct cell exactly once and serve every
// other copy from the memo. Run with -race to check the memo's
// synchronization.
func TestCellMemoSingleFlight(t *testing.T) {
	const keys, copies, sweeps = 16, 4, 3
	s := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{Workers: 8, Metrics: reg})
	var runs [keys]atomic.Int64
	sweep := func() []runner.Cell[cellOut] {
		var cells []runner.Cell[cellOut]
		for c := 0; c < copies; c++ {
			for k := 0; k < keys; k++ {
				cells = append(cells, runner.Cell[cellOut]{Key: fmt.Sprintf("cell-%d", k),
					Run: func(context.Context) (cellOut, error) {
						runs[k].Add(1)
						return cellOut{CPR: float64(k)}, nil
					}})
			}
		}
		return cells
	}
	var wg sync.WaitGroup
	for g := 0; g < sweeps; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs, err := s.runCells(context.Background(), sweep())
			if err != nil {
				t.Error(err)
				return
			}
			for i, o := range outs {
				if o.CPR != float64(i%keys) {
					t.Errorf("output %d is cell-%v's", i, o.CPR)
				}
			}
		}()
	}
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("cell-%d computed %d times, want once", k, n)
		}
	}
	if hits, want := reg.Counter(obs.MCellsMemoHits).Value(), int64(sweeps*copies*keys-keys); hits != want {
		t.Errorf("memo hits = %d, want %d", hits, want)
	}
}

// TestCellMemoSkipsFailures: a panicking or failing computation is not
// memoized; the next sweep needing the cell computes it afresh, and only
// its success is reused.
func TestCellMemoSkipsFailures(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	var attempts atomic.Int64
	cell := []runner.Cell[cellOut]{{Key: "flaky", Run: func(context.Context) (cellOut, error) {
		switch attempts.Add(1) {
		case 1:
			panic("injected")
		case 2:
			return cellOut{}, errors.New("transient")
		}
		return cellOut{CPR: 7}, nil
	}}}
	ctx := context.Background()
	for i, wantErr := range []bool{true, true, false, false} {
		outs, err := s.runCells(ctx, cell)
		if (err != nil) != wantErr {
			t.Fatalf("sweep %d: err = %v, want failure %v", i, err, wantErr)
		}
		if err == nil && outs[0].CPR != 7 {
			t.Fatalf("sweep %d: output %+v", i, outs[0])
		}
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("cell ran %d times, want 3 (two failures, then one success reused)", n)
	}
}

// TestProfileCacheDropsPanickedBuild: a behavioural pass that panics is
// not cached. The panic reaches the building caller, and the next caller
// for the same (organization × trace) builds afresh instead of receiving
// a nil profile with a nil error.
func TestProfileCacheDropsPanickedBuild(t *testing.T) {
	s := NewSuiteWithTraces([]*trace.Trace{nil}) // a nil trace panics the pass
	org := orgFor(64, 4, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("profiling a nil trace did not panic")
			}
		}()
		s.profile(0, org)
	}()
	s.Traces[0] = sweepTestTraces()[0]
	p, err := s.profile(0, org)
	if err != nil || p == nil {
		t.Fatalf("profile after a panicked build = %v, %v; want a fresh build", p, err)
	}
	if p.TraceName != s.Traces[0].Name {
		t.Fatalf("profile of trace %q, want %q", p.TraceName, s.Traces[0].Name)
	}
}

// TestSweepReplaysEachCycleDomainOnce: a speed–size sweep over the paper's
// sixteen cycle times replays each (trace, organization, cycle-domain
// timing) once and builds each (trace, organization) profile once; every
// other cell of the grid is a memo hit.
func TestSweepReplaysEachCycleDomainOnce(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{Workers: 4, Metrics: reg})
	sizes := []int{8, 16}
	if _, err := s.SpeedSizeGrid(context.Background(), sizes, CycleTimesNs, 1); err != nil {
		t.Fatal(err)
	}
	forms := make(map[engine.CycleTiming]bool)
	for _, cy := range CycleTimesNs {
		ct, err := baseTiming(cy).CycleDomain()
		if err != nil {
			t.Fatal(err)
		}
		forms[ct] = true
	}
	if len(forms) == len(CycleTimesNs) {
		t.Fatal("no two cycle times share a cycle-domain timing; the test shows nothing")
	}
	n := int64(len(s.Traces) * len(sizes))
	done := reg.Counter(obs.MCellsDone).Value()
	hits := reg.Counter(obs.MCellsMemoHits).Value()
	if want := n * int64(len(CycleTimesNs)); done != want {
		t.Fatalf("cells_done = %d, want %d", done, want)
	}
	if fresh, want := done-hits, n*int64(len(forms)); fresh != want {
		t.Fatalf("%d replays ran, want one per (trace, organization, cycle-domain timing) = %d", fresh, want)
	}
	if built := reg.Counter(obs.MProfilesBuilt).Value(); built != n {
		t.Fatalf("profiles_built = %d, want %d", built, n)
	}
}
