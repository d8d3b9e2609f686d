package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/workload"
)

// countingSet returns a trace set over cells whose generations are counted.
func countingSet(cells []CellSpec) (*traceSet, *atomic.Int64) {
	s := newTraceSet(cells)
	var n atomic.Int64
	s.generate = func(k traceKey) (*trace.Trace, error) {
		n.Add(1)
		return generateTrace(k)
	}
	return s, &n
}

func TestTraceSetConcurrentGetsShareOneTrace(t *testing.T) {
	s, gens := countingSet(nil)
	k := traceKey{"mu3", 0.01}
	const callers = 8
	got := make([]*trace.Trace, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := s.get(context.Background(), k)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
		}()
	}
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Errorf("%d generations for one key, want 1", n)
	}
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("caller %d got trace %p, caller 0 got %p", i, tr, got[0])
		}
	}
	if other, _ := s.get(context.Background(), traceKey{"mu3", 0.02}); other == got[0] {
		t.Error("a different scale shared the trace")
	}
}

func TestTraceSetErrorReachesEveryCaller(t *testing.T) {
	s, gens := countingSet(nil)
	k := traceKey{"no-such-workload", 0.01}
	var first error
	for i := 0; i < 3; i++ {
		tr, err := s.get(context.Background(), k)
		if err == nil || tr != nil {
			t.Fatalf("call %d: unknown workload gave trace %v, err %v", i, tr, err)
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Errorf("call %d: error %v, want the first caller's %v", i, err, first)
		}
	}
	if n := gens.Load(); n != 1 {
		t.Errorf("%d generations for a failing key, want 1 (errors are kept)", n)
	}
}

func TestTraceSetPanicIsNotCached(t *testing.T) {
	s := newTraceSet(nil)
	k := traceKey{"mu3", 0.01}
	entered := make(chan struct{})
	boom := make(chan struct{})
	var calls atomic.Int64
	s.generate = func(k traceKey) (*trace.Trace, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-boom
			panic("generation failed")
		}
		return generateTrace(k)
	}

	// The first caller panics mid-generation while a second waits on it.
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		s.get(context.Background(), k) //nolint:errcheck // panics
	}()
	<-entered
	waiter := make(chan *trace.Trace, 1)
	go func() {
		tr, err := s.get(context.Background(), k)
		if err != nil {
			t.Error(err)
		}
		waiter <- tr
	}()
	// A caller that gives up while waiting leaves the slot to the others.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.get(ctx, k); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled waiter: err %v, want its deadline", err)
	}
	close(boom)
	if p := <-panicked; p == nil {
		t.Fatal("the first generation did not panic")
	}
	tr := <-waiter
	if tr == nil {
		t.Fatal("the waiter got no trace after the panic")
	}
	if again, _ := s.get(context.Background(), k); again != tr {
		t.Error("the regenerated trace was not kept")
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d generations, want 2 (the panic, then one regeneration)", n)
	}
}

// TestTraceSetJobGeneratesOncePerWorkload drives a set through the runner
// the way Service.runJob does: a fresh job over two workloads and three
// sizes generates each trace exactly once, and once every cell has
// finished the set holds no trace.
func TestTraceSetJobGeneratesOncePerWorkload(t *testing.T) {
	req := GridRequest{Workloads: []string{"mu3", "rd1n3"}, Scale: 0.01, SizesKB: []int{2, 4, 8}}
	specs := req.Cells()
	s, gens := countingSet(specs)
	replayed := make([]*trace.Trace, len(specs)) // the trace each cell ran on
	cells := make([]runner.Cell[CellResult], len(specs))
	for i, cs := range specs {
		cells[i] = runner.Cell[CellResult]{Key: cs.Key(), Run: func(ctx context.Context) (CellResult, error) {
			tr, err := s.get(ctx, cs.traceKey())
			replayed[i] = tr
			if err != nil {
				return CellResult{}, err
			}
			return cs.simulate(ctx, s)
		}}
	}
	results := runner.Run(context.Background(), cells, runner.Options{
		Workers:    4,
		OnCellDone: func(ev runner.CellEvent) { s.release(specs[ev.Index]) },
	})
	if _, err := runner.Values(results); err != nil {
		t.Fatal(err)
	}
	if n := gens.Load(); n != int64(len(req.Workloads)) {
		t.Errorf("%d generations for %d workloads", n, len(req.Workloads))
	}
	// Each cell ran on its own workload's trace at the request's scale,
	// checked against an independent generation.
	for i, cs := range specs {
		spec, err := workload.ByName(cs.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if want := spec.MustGenerate(cs.Scale); !reflect.DeepEqual(replayed[i], want) {
			t.Errorf("cell %+v did not run on the %s trace at scale %v", cs, cs.Workload, cs.Scale)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) != 0 || len(s.pending) != 0 {
		t.Errorf("set still holds %d traces and %d pending keys after every cell finished",
			len(s.entries), len(s.pending))
	}
}
