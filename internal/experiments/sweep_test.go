package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sweepTestTraces builds a small deterministic trace set: big enough that a
// grid sweep takes several cells, small enough to run in milliseconds.
func sweepTestTraces() []*trace.Trace {
	a := workload.Random(4000, 4096, 0.2, 7)
	a.Name = "rnd-a"
	a.WarmStart = 500
	b := workload.Couplets(4000)
	b.WarmStart = 500
	return []*trace.Trace{a, b}
}

var (
	sweepSizes  = []int{8, 16, 32}
	sweepCycles = []int{20, 40, 60, 80}
)

// TestCheckpointResumeByteIdentical is the contract the checkpoint exists
// for: a sweep interrupted partway and resumed from its checkpoint log
// produces output byte-identical to one uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	// Uninterrupted reference run.
	gold := MustNewSuiteWithTracesForTest(t)
	goldGrid, err := gold.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	goldJSON, err := json.Marshal(goldGrid)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel once the checkpoint holds a few cells but
	// not all of them.
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	cp, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := MustNewSuiteWithTracesForTest(t)
	interrupted.SetExec(ExecOptions{Workers: 2, Checkpoint: cp})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := interrupted.SpeedSizeGrid(ctx, sweepSizes, sweepCycles, 1)
		done <- err
	}()
	deadline := time.After(30 * time.Second)
	for cp.Len() < 3 {
		select {
		case err := <-done:
			// The sweep may legitimately finish before we cancel on a
			// fast machine; then there is nothing to resume and the
			// test still verified nothing broke.
			if err != nil {
				t.Fatalf("sweep finished early with error: %v", err)
			}
			t.Skip("sweep completed before the interrupt fired")
		case <-deadline:
			t.Fatal("checkpoint never accumulated cells")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Log("sweep completed despite cancellation (all cells were already in flight)")
	} else {
		var se *runner.SweepError
		if !errors.As(err, &se) || !se.Canceled() {
			t.Fatalf("interrupted sweep error = %v, want canceled SweepError", err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: a fresh process (fresh suite, fresh checkpoint handle over
	// the same log) replays the completed cells and computes the rest.
	cp2, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() == 0 {
		t.Fatal("checkpoint empty after interrupted run")
	}
	total := len(sweepSizes) * len(sweepCycles) * 2 // × traces
	t.Logf("resuming with %d/%d cells checkpointed", cp2.Len(), total)
	resumed := MustNewSuiteWithTracesForTest(t)
	resumed.SetExec(ExecOptions{Workers: 2, Checkpoint: cp2})
	resumedGrid, err := resumed.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	resumedJSON, err := json.Marshal(resumedGrid)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedJSON) != string(goldJSON) {
		t.Errorf("resumed grid differs from uninterrupted run\nresumed: %s\ngold:    %s", resumedJSON, goldJSON)
	}
}

// MustNewSuiteWithTracesForTest builds a suite over the deterministic test
// traces, failing the test on invalid traces.
func MustNewSuiteWithTracesForTest(t *testing.T) *Suite {
	t.Helper()
	traces := sweepTestTraces()
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return NewSuiteWithTraces(traces)
}

// TestSweepPanicIsolation: a panicking cell fails alone; the rest of the
// sweep completes and the error names the panic.
func TestSweepPanicIsolation(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	cells := s.replayCellsFor(nil, orgFor(8, 4, 1), baseTiming(40))
	good := len(cells)
	cells = append(cells, runner.Cell[cellOut]{
		Key: "poison",
		Run: func(ctx context.Context) (cellOut, error) {
			panic("boom")
		},
	})
	_, err := s.runCells(context.Background(), cells)
	var se *runner.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *runner.SweepError", err)
	}
	if se.Summary.Done != good || se.Summary.Panicked != 1 {
		t.Errorf("summary = %+v, want %d done and 1 panicked", se.Summary, good)
	}
	if se.Canceled() {
		t.Error("panic-only sweep reported as canceled")
	}
}

// TestSweepCancellationBeforeStart: an already-cancelled context marks
// every cell not-run and the sweep as canceled.
func TestSweepCancellationBeforeStart(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.ReplayWarm(ctx, orgFor(8, 4, 1), baseTiming(40))
	var se *runner.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *runner.SweepError", err)
	}
	if !se.Canceled() {
		t.Errorf("Canceled() = false for pre-cancelled context; summary %+v", se.Summary)
	}
	if se.Summary.Done != 0 {
		t.Errorf("%d cells ran under a pre-cancelled context", se.Summary.Done)
	}
}

// TestConcurrentProfileCacheSingleFlight: many concurrent cells needing the
// same behavioural profile build it exactly once. Run with -race to check
// the cache's synchronization.
func TestConcurrentProfileCacheSingleFlight(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	s.SetExec(ExecOptions{Workers: 8})
	org := orgFor(16, 4, 1)
	var cells []runner.Cell[cellOut]
	for _, cy := range []int{20, 24, 28, 32, 36, 40, 44, 48} {
		cells = s.replayCellsFor(cells, org, baseTiming(cy))
	}
	outs, err := s.runCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 8*len(s.Traces) {
		t.Fatalf("%d outputs", len(outs))
	}
	if len(s.profiles) != len(s.Traces) {
		t.Errorf("profile cache holds %d entries, want %d (one per trace)", len(s.profiles), len(s.Traces))
	}
	for key, e := range s.profiles {
		if e.p == nil || e.err != nil {
			t.Errorf("profile %+v: p=%v err=%v", key, e.p, e.err)
		}
	}
	// The same (org, cycle) cell computed twice gives identical floats —
	// the determinism the byte-identical resume rests on. A fresh Suite
	// over the same traces recomputes it; this one would serve its memo.
	fresh := NewSuiteWithTraces(s.Traces)
	again, err := fresh.runCells(context.Background(), fresh.replayCellsFor(nil, org, baseTiming(20)))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range again {
		if o != outs[i] {
			t.Errorf("trace %d: recomputed cell differs: %+v vs %+v", i, o, outs[i])
		}
	}
}

// TestSweepErrorMessage: the sweep error is a readable one-liner per cell.
func TestSweepErrorMessage(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	cells := []runner.Cell[cellOut]{{
		Key: "bad",
		Run: func(ctx context.Context) (cellOut, error) {
			return cellOut{}, fmt.Errorf("synthetic failure")
		},
	}}
	_, err := s.runCells(context.Background(), cells)
	if err == nil || err.Error() == "" {
		t.Fatalf("want descriptive error, got %v", err)
	}
}
