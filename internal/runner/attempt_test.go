package runner

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// doneEvents runs the cells and returns each cell's one OnCellDone event
// by key.
func doneEvents(t *testing.T, cells []Cell[int], opts Options) map[string]CellEvent {
	t.Helper()
	var mu sync.Mutex
	evs := map[string]CellEvent{}
	opts.OnCellDone = func(ev CellEvent) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := evs[ev.Key]; dup {
			t.Errorf("cell %s fired OnCellDone twice", ev.Key)
		}
		evs[ev.Key] = ev
	}
	Run(context.Background(), cells, opts)
	return evs
}

// TestCellEventAttemptsCountRetries: a cell that fails twice and then
// succeeds fires one done event, after its final attempt, that counts
// every attempt, the failed ones a retry hides included.
func TestCellEventAttemptsCountRetries(t *testing.T) {
	var tries atomic.Int32
	evs := doneEvents(t, []Cell[int]{{
		Key: "flaky",
		Run: func(ctx context.Context) (int, error) {
			if tries.Add(1) < 3 {
				return 0, errors.New("transient")
			}
			return 7, nil
		},
	}}, Options{Retries: 2})
	if ev := evs["flaky"]; ev.Attempts != 3 || ev.Err != nil || ev.Panicked || ev.Index != 0 {
		t.Fatalf("done event = %+v, want 3 attempts and success", ev)
	}
}

// TestCellEventAttemptsPanic: panicking attempts count as attempts, and
// the done event marks the final one panicked.
func TestCellEventAttemptsPanic(t *testing.T) {
	evs := doneEvents(t, []Cell[int]{{
		Key: "boom",
		Run: func(ctx context.Context) (int, error) { panic("kaboom") },
	}}, Options{Retries: 1})
	if ev := evs["boom"]; ev.Attempts != 2 || !ev.Panicked || ev.Err == nil {
		t.Fatalf("done event = %+v, want 2 panicked attempts", ev)
	}
}

// TestCellEventAttemptsZeroOnReplay: checkpoint-replayed cells never ran,
// so their done events carry 0 attempts; the fresh cells carry 1.
func TestCellEventAttemptsZeroOnReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	mk := func(n int) []Cell[int] {
		cells := make([]Cell[int], n)
		for i := 0; i < n; i++ {
			cells[i] = Cell[int]{Key: fmt.Sprintf("k%d", i), Run: func(ctx context.Context) (int, error) {
				return i, nil
			}}
		}
		return cells
	}
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Values(Run(context.Background(), mk(4), Options{Checkpoint: cp})); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	evs := doneEvents(t, mk(6), Options{Checkpoint: cp2})
	if len(evs) != 6 {
		t.Fatalf("%d done events, want 6", len(evs))
	}
	for k, ev := range evs {
		fresh := k == "k4" || k == "k5"
		want := 0
		if fresh {
			want = 1
		}
		if ev.Attempts != want || ev.FromCheckpoint == fresh {
			t.Errorf("cell %s: attempts %d, from checkpoint %v; want %d, %v", k, ev.Attempts, ev.FromCheckpoint, want, !fresh)
		}
	}
}
