package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// cellN builds a trivial cell returning its index.
func cellN(i int) Cell[int] {
	return Cell[int]{
		Key: fmt.Sprintf("cell-%d", i),
		Run: func(ctx context.Context) (int, error) { return i, nil },
	}
}

func TestResultsInInputOrder(t *testing.T) {
	// Random sleeps scramble completion order; results must not care.
	const n = 64
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("c%d", i),
			Run: func(ctx context.Context) (int, error) {
				time.Sleep(time.Duration(rand.IntN(3)) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	rs := Run(context.Background(), cells, Options{Workers: 8})
	vals, err := Values(rs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	cells := []Cell[int]{
		cellN(0),
		{Key: "boom", Run: func(ctx context.Context) (int, error) { panic("kaboom") }},
		cellN(2),
	}
	rs := Run(context.Background(), cells, Options{Workers: 2})
	if !rs[0].Done || !rs[2].Done {
		t.Fatal("healthy cells did not complete alongside a panicking one")
	}
	ce := rs[1].Err
	if ce == nil || !ce.Panicked {
		t.Fatalf("panic not converted to CellError: %+v", rs[1])
	}
	if !strings.Contains(ce.Err.Error(), "kaboom") {
		t.Errorf("panic value lost: %v", ce.Err)
	}
	if ce.Stack == "" {
		t.Error("panic stack not captured")
	}
	if _, err := Values(rs); err == nil {
		t.Fatal("Values did not report the failed cell")
	} else {
		var se *SweepError
		if !errors.As(err, &se) {
			t.Fatalf("error %T is not a SweepError", err)
		}
		if se.Summary.Panicked != 1 || se.Summary.Done != 2 {
			t.Errorf("summary = %+v", se.Summary)
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	// A slow sweep cancelled partway: completed cells keep their values,
	// the rest are marked not-run with the cancellation cause.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	const n = 50
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("c%d", i),
			Run: func(ctx context.Context) (int, error) {
				if started.Add(1) == 3 {
					cancel()
				}
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(time.Millisecond):
					return i, nil
				}
			},
		}
	}
	rs := Run(ctx, cells, Options{Workers: 2})
	sum := Summarize(rs)
	if sum.Done == n {
		t.Fatal("cancellation had no effect")
	}
	if sum.Done+sum.Failed+sum.NotRun != n {
		t.Fatalf("summary does not tally: %+v", sum)
	}
	if sum.NotRun == 0 {
		t.Fatalf("no cells marked not-run after cancel: %+v", sum)
	}
	_, err := Values(rs)
	var se *SweepError
	if !errors.As(err, &se) || !se.Canceled() {
		t.Fatalf("cancelled sweep not reported as canceled: %v", err)
	}
}

func TestBoundedRetry(t *testing.T) {
	var tries atomic.Int32
	cells := []Cell[int]{{
		Key: "flaky",
		Run: func(ctx context.Context) (int, error) {
			if tries.Add(1) < 3 {
				return 0, errors.New("transient")
			}
			return 42, nil
		},
	}}
	rs := Run(context.Background(), cells, Options{Retries: 2})
	if !rs[0].Done || rs[0].Value != 42 {
		t.Fatalf("flaky cell did not recover: %+v", rs[0])
	}
	if rs[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3", rs[0].Attempts)
	}

	// Exhausted retries surface the last error with the attempt count.
	tries.Store(-100)
	rs = Run(context.Background(), cells, Options{Retries: 1})
	if rs[0].Done || rs[0].Err == nil || rs[0].Err.Attempts != 2 {
		t.Fatalf("retry bound not enforced: %+v", rs[0])
	}
}

// TestNegativeRetriesRunOnce: a negative retry budget still runs each
// cell once; it only takes the retries away.
func TestNegativeRetriesRunOnce(t *testing.T) {
	rs := Run(context.Background(), []Cell[int]{cellN(7)}, Options{Retries: -1})
	if !rs[0].Done || rs[0].Value != 7 || rs[0].Attempts != 1 {
		t.Fatalf("Retries -1: %+v, want one attempt and Done", rs[0])
	}
	if s := Summarize(rs); s.Done != 1 || s.Failed != 0 {
		t.Errorf("tally %+v, want Done 1", s)
	}
}

func TestRetryIfFilter(t *testing.T) {
	var tries atomic.Int32
	permanent := errors.New("permanent")
	cells := []Cell[int]{{
		Key: "fatal",
		Run: func(ctx context.Context) (int, error) {
			tries.Add(1)
			return 0, permanent
		},
	}}
	rs := Run(context.Background(), cells, Options{
		Retries: 5,
		RetryIf: func(err error) bool { return !errors.Is(err, permanent) },
	})
	if got := tries.Load(); got != 1 {
		t.Fatalf("permanent error retried %d times", got)
	}
	if rs[0].Err == nil || !errors.Is(rs[0].Err, permanent) {
		t.Fatalf("permanent error lost: %+v", rs[0])
	}
}

func TestPerCellDeadline(t *testing.T) {
	cells := []Cell[int]{
		{Key: "slow", Run: func(ctx context.Context) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Second):
				return 1, nil
			}
		}},
		cellN(1),
	}
	start := time.Now()
	rs := Run(context.Background(), cells, Options{Workers: 2, CellTimeout: 20 * time.Millisecond})
	if time.Since(start) > 2*time.Second {
		t.Fatal("per-cell deadline did not fire")
	}
	if rs[0].Err == nil || !errors.Is(rs[0].Err, context.DeadlineExceeded) {
		t.Fatalf("slow cell not deadline-errored: %+v", rs[0])
	}
	if !rs[1].Done {
		t.Fatal("fast cell caught the slow cell's deadline")
	}
}

func TestSweepDeadline(t *testing.T) {
	const n = 20
	cells := make([]Cell[int], n)
	for i := 0; i < n; i++ {
		cells[i] = Cell[int]{Key: fmt.Sprintf("c%d", i), Run: func(ctx context.Context) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(40 * time.Millisecond):
				return 1, nil
			}
		}}
	}
	rs := Run(context.Background(), cells, Options{Workers: 1, SweepTimeout: 60 * time.Millisecond})
	sum := Summarize(rs)
	if sum.Done == n || sum.Done == 0 {
		t.Fatalf("sweep deadline tally implausible: %+v", sum)
	}
}

func TestCheckpointRecordsAndReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	mk := func(n int) []Cell[int] {
		cells := make([]Cell[int], n)
		for i := 0; i < n; i++ {
			i := i
			cells[i] = Cell[int]{Key: fmt.Sprintf("k%d", i), Run: func(ctx context.Context) (int, error) {
				runs.Add(1)
				return i * 10, nil
			}}
		}
		return cells
	}
	if _, err := Values(Run(context.Background(), mk(5), Options{Checkpoint: cp})); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 5 {
		t.Fatalf("first pass ran %d cells", got)
	}

	// Reopen: a larger sweep replays the recorded prefix and runs only
	// the new cells.
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 5 {
		t.Fatalf("reloaded %d entries, want 5", cp2.Len())
	}
	rs := Run(context.Background(), mk(8), Options{Checkpoint: cp2})
	vals, err := Values(rs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*10 {
			t.Fatalf("value %d = %d after resume", i, v)
		}
	}
	if got := runs.Load(); got != 8 {
		t.Fatalf("resume ran %d cells total, want 8 (5 replayed)", got)
	}
	if sum := Summarize(rs); sum.FromCheckpoint != 5 {
		t.Fatalf("summary = %+v, want 5 from checkpoint", sum)
	}
}

func TestCheckpointTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ndjson")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.record("a", 1)
	cp.record("b", 2)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn final line without newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"c","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if cp2.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", cp2.Len())
	}
	if _, ok := cp2.Lookup("c"); ok {
		t.Fatal("torn entry surfaced")
	}
	// The torn bytes must be gone so fresh appends stay well-formed.
	cp2.record("c", 3)
	if err := cp2.Close(); err != nil {
		t.Fatal(err)
	}
	cp3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp3.Close()
	if cp3.Len() != 3 {
		t.Fatalf("after repair+append loaded %d entries, want 3", cp3.Len())
	}
}

func TestCheckpointCorruptMiddleQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.ndjson")
	if err := os.WriteFile(path, []byte("not json at all\n{\"key\":\"a\",\"value\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatalf("mid-file corruption fatal: %v", err)
	}
	defer cp.Close()
	if cp.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1 intact", cp.Len())
	}
	stats := cp.ScanStats()
	if stats.Quarantined != 1 || !stats.Repaired {
		t.Fatalf("scan stats = %+v, want 1 quarantined + repaired", stats)
	}
	if _, err := os.Stat(durable.QuarantinePath(path)); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
}

// TestCheckpointDuplicateKeyLastWins: duplicate keys — e.g. a cell re-run
// and re-recorded across a crash/restart — must resolve to the most
// recently appended value, on load as in memory.
func TestCheckpointDuplicateKeyLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.ndjson")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.record("a", 1)
	cp.record("b", 2)
	cp.record("a", 10) // re-recorded: supersedes the first
	if raw, _ := cp.Lookup("a"); string(raw) != "10" {
		t.Fatalf("in-memory a = %s, want 10", raw)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", cp2.Len())
	}
	if raw, _ := cp2.Lookup("a"); string(raw) != "10" {
		t.Fatalf("reloaded a = %s, want 10 (last wins)", raw)
	}
}

// TestCheckpointOverLongLineQuarantined: an absurdly long line — a
// runaway or corrupted record — is quarantined with a typed error, not
// read into memory and not fatal.
func TestCheckpointOverLongLineQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.ndjson")
	huge := `{"key":"big","value":"` + strings.Repeat("x", durable.DefaultMaxLine) + `"}` + "\n"
	if err := os.WriteFile(path, []byte(`{"key":"a","value":1}`+"\n"+huge), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1", cp.Len())
	}
	stats := cp.ScanStats()
	if stats.Quarantined != 1 || len(stats.Errors) == 0 {
		t.Fatalf("scan stats = %+v", stats)
	}
	if re := stats.Errors[0]; re.Line != 2 || !strings.Contains(re.Reason, "exceeds") {
		t.Fatalf("record error = %+v", re)
	}
}

// TestCheckpointBitFlipRecomputed: a silently flipped bit in a persisted
// cell must not resurface as a wrong memoized value — the CRC catches it,
// the record is quarantined, and the cell is simply recomputed.
func TestCheckpointBitFlipRecomputed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.ndjson")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the second record's bytes as a corrupting disk would.
	// (faultinject.BitFlipWriter lives downstream of runner, so a minimal
	// equivalent is inlined here.)
	cp.WrapWriter(func(w io.Writer) io.Writer {
		return &flipOnceWriter{w: w, at: 40}
	})
	cp.record("a", 111)
	cp.record("b", 222)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if stats := cp2.ScanStats(); stats.Quarantined != 1 {
		t.Fatalf("scan stats = %+v, want the flipped record quarantined", stats)
	}
	if raw, ok := cp2.Lookup("b"); ok {
		t.Fatalf("corrupted record surfaced as b=%s", raw)
	}
	if raw, ok := cp2.Lookup("a"); !ok || string(raw) != "111" {
		t.Fatalf("intact record lost: a=%s ok=%v", raw, ok)
	}
}

// flipOnceWriter silently inverts one bit in the first write crossing
// `at` cumulative bytes, reporting full success — a corrupting disk.
type flipOnceWriter struct {
	w       io.Writer
	at      int64
	written int64
	done    bool
}

func (f *flipOnceWriter) Write(p []byte) (int, error) {
	buf := p
	if !f.done && len(p) > 0 && f.written+int64(len(p)) > f.at {
		f.done = true
		buf = append([]byte(nil), p...)
		buf[len(buf)/2] ^= 0x10
	}
	n, err := f.w.Write(buf)
	f.written += int64(n)
	return n, err
}

func TestKeyStability(t *testing.T) {
	type spec struct{ A, B int }
	k1 := Key("replay", spec{1, 2}, "trace-x", 0.25)
	k2 := Key("replay", spec{1, 2}, "trace-x", 0.25)
	if k1 != k2 {
		t.Fatal("identical parts hashed differently")
	}
	if k1 == Key("replay", spec{1, 3}, "trace-x", 0.25) {
		t.Fatal("different parts collided")
	}
	if k1 == Key("counters", spec{1, 2}, "trace-x", 0.25) {
		t.Fatal("kind not part of the key")
	}
	if len(k1) != 32 {
		t.Fatalf("key length %d", len(k1))
	}
}

func TestValuesAllGood(t *testing.T) {
	cells := []Cell[int]{cellN(0), cellN(1)}
	vals, err := Values(Run(context.Background(), cells, Options{}))
	if err != nil || len(vals) != 2 || vals[1] != 1 {
		t.Fatalf("vals=%v err=%v", vals, err)
	}
}

func TestCellErrorRecordsCancelCause(t *testing.T) {
	// Cancelling the sweep with a cause (a server draining, say) must leave
	// that cause on every affected cell, both in-flight and never-started.
	drain := errors.New("server draining")
	ctx, cancel := context.WithCancelCause(context.Background())
	started := make(chan struct{})
	cells := []Cell[int]{
		{Key: "inflight", Run: func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}},
		{Key: "queued", Run: func(ctx context.Context) (int, error) { return 1, nil }},
	}
	go func() {
		<-started
		cancel(drain)
	}()
	rs := Run(ctx, cells, Options{Workers: 1})
	for i, r := range rs {
		if r.Done {
			t.Fatalf("cell %d completed despite cancellation", i)
		}
		if !errors.Is(r.Err.Cause, drain) {
			t.Fatalf("cell %d cause = %v, want the drain cause", i, r.Err.Cause)
		}
	}
	if !strings.Contains(rs[0].Err.Error(), "server draining") {
		t.Fatalf("cause missing from message: %v", rs[0].Err)
	}
}

func TestCellErrorRecordsDeadlineCause(t *testing.T) {
	// A per-cell deadline is its own cause: context.DeadlineExceeded, not
	// whatever cancelled the sweep.
	cells := []Cell[int]{{Key: "slow", Run: func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}}}
	rs := Run(context.Background(), cells, Options{Workers: 1, CellTimeout: 5 * time.Millisecond})
	if rs[0].Done {
		t.Fatal("cell completed despite deadline")
	}
	if !errors.Is(rs[0].Err.Cause, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want DeadlineExceeded", rs[0].Err.Cause)
	}
}

func TestBackoffBetweenRetries(t *testing.T) {
	var calls []int
	var attempts atomic.Int32
	cells := []Cell[int]{{Key: "flaky", Run: func(ctx context.Context) (int, error) {
		if attempts.Add(1) < 3 {
			return 0, errors.New("transient")
		}
		return 7, nil
	}}}
	start := time.Now()
	rs := Run(context.Background(), cells, Options{
		Workers: 1,
		Retries: 3,
		Backoff: func(attempt int) time.Duration {
			calls = append(calls, attempt)
			return 10 * time.Millisecond
		},
	})
	if !rs[0].Done || rs[0].Value != 7 || rs[0].Attempts != 3 {
		t.Fatalf("result: done=%v value=%d attempts=%d", rs[0].Done, rs[0].Value, rs[0].Attempts)
	}
	if want := []int{1, 2}; len(calls) != 2 || calls[0] != want[0] || calls[1] != want[1] {
		t.Fatalf("backoff called with %v, want %v", calls, want)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("sweep finished in %v; backoff sleeps not taken", elapsed)
	}
}

func TestBackoffHonoursCancellation(t *testing.T) {
	// A cancellation arriving mid-backoff must end the cell promptly with
	// the last real failure, not sleep out the full delay.
	quit := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	inBackoff := make(chan struct{}, 1)
	cells := []Cell[int]{{Key: "flaky", Run: func(ctx context.Context) (int, error) {
		return 0, errors.New("transient")
	}}}
	go func() {
		<-inBackoff
		cancel(quit)
	}()
	start := time.Now()
	rs := Run(ctx, cells, Options{
		Workers: 1,
		Retries: 1,
		Backoff: func(int) time.Duration {
			inBackoff <- struct{}{}
			return time.Minute
		},
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation did not interrupt backoff (%v)", elapsed)
	}
	ce := rs[0].Err
	if ce == nil || ce.Err.Error() != "transient" {
		t.Fatalf("err = %v, want the last real failure", ce)
	}
	if !errors.Is(ce.Cause, quit) {
		t.Fatalf("cause = %v, want the cancellation cause", ce.Cause)
	}
}
