// Package runner executes sweeps of independent simulation cells on a
// bounded worker pool, hardening the long simulation-farm style runs the
// paper's grids require: a panicking cell is isolated into a typed
// CellError instead of killing the sweep, cancellation (Ctrl-C, deadline)
// stops feeding work and drains cleanly, transient failures retry a bounded
// number of times, and results always come back in input order regardless
// of completion order. An optional append-only NDJSON checkpoint records
// every completed cell so an interrupted sweep resumes by replaying the
// finished cells and re-running only the remainder.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Cell is one unit of sweep work. Key identifies the cell for
// checkpointing; an empty Key disables checkpointing for that cell. Run
// must be safe to call concurrently with other cells' Run functions and
// should honour ctx cancellation between expensive phases.
type Cell[T any] struct {
	Key string
	Run func(ctx context.Context) (T, error)
}

// CellError is the typed failure of one cell: the terminal error after all
// attempts, with panic context preserved when the failure was a panic.
type CellError struct {
	Key      string
	Attempts int    // attempts actually made (0 = never started)
	Panicked bool   // the last attempt panicked
	Stack    string // goroutine stack of the last panic, "" otherwise
	Err      error
	// Cause is context.Cause at the moment the cell stopped, set only when
	// the failure stems from context cancellation. Callers that cancel with
	// a cause (a server draining, a client hanging up, a per-request
	// deadline) can distinguish those outcomes here even though Err is the
	// generic context.Canceled/DeadlineExceeded the cell observed.
	Cause error
}

func (e *CellError) Error() string {
	var msg string
	switch {
	case e.Attempts == 0:
		msg = fmt.Sprintf("cell %s: not run: %v", e.short(), e.Err)
	case e.Panicked:
		msg = fmt.Sprintf("cell %s: panicked after %d attempt(s): %v", e.short(), e.Attempts, e.Err)
	default:
		msg = fmt.Sprintf("cell %s: failed after %d attempt(s): %v", e.short(), e.Attempts, e.Err)
	}
	if e.Cause != nil && !errors.Is(e.Err, e.Cause) {
		msg += fmt.Sprintf(" (cause: %v)", e.Cause)
	}
	return msg
}

func (e *CellError) Unwrap() error { return e.Err }

// short abbreviates long hash keys for messages.
func (e *CellError) short() string {
	if len(e.Key) > 12 {
		return e.Key[:12]
	}
	if e.Key == "" {
		return "?"
	}
	return e.Key
}

// Result is the outcome of one cell, in the same position as its cell in
// the input slice.
type Result[T any] struct {
	Key string
	// Value is valid only when Done.
	Value T
	// Done marks a successfully completed cell (freshly run or replayed
	// from the checkpoint).
	Done bool
	// FromCheckpoint marks a value replayed from the checkpoint log
	// rather than recomputed.
	FromCheckpoint bool
	// Attempts counts how many times the cell ran (0 for checkpoint
	// replays and cells cancelled before starting).
	Attempts int
	// Duration is the wall-clock time the cell spent on a worker, summed
	// over every attempt including retries (0 for checkpoint replays and
	// cells cancelled before starting).
	Duration time.Duration
	// Err is set when the cell failed or was never run.
	Err *CellError
}

// CellEvent describes one cell outcome for Options.OnCellDone. Exactly one
// event fires per cell a worker picked up (after its final attempt) and per
// checkpoint replay; cells cancelled before reaching a worker produce none.
type CellEvent struct {
	Key   string
	Index int // position in the input cell slice
	// Duration is wall-clock time across all attempts (0 for replays).
	Duration time.Duration
	// Attempts is how many times the cell ran (0 for replays).
	Attempts int
	// FromCheckpoint marks a replayed cell, which never fired OnCellStart.
	FromCheckpoint bool
	// Panicked reports whether the final attempt panicked.
	Panicked bool
	// Err is the terminal error, nil on success.
	Err error
}

// Options configures a sweep.
type Options struct {
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// CellTimeout bounds each attempt of each cell; 0 means no per-cell
	// deadline. Enforcement is cooperative: the cell's ctx expires.
	CellTimeout time.Duration
	// SweepTimeout bounds the whole sweep; 0 means no sweep deadline.
	SweepTimeout time.Duration
	// Retries is how many additional attempts a failing cell gets; a
	// negative budget counts as 0, so every cell runs at least once.
	Retries int
	// RetryIf filters which failures retry; nil retries every failure
	// (other than sweep cancellation) up to Retries times. Errors marked
	// permanent (see Permanent) never retry regardless of RetryIf.
	RetryIf func(error) bool
	// Backoff, when set, returns how long to wait before re-running a cell
	// whose attempt-th attempt just failed (attempt starts at 1). The wait
	// honours ctx cancellation. Nil retries immediately.
	Backoff func(attempt int) time.Duration
	// Checkpoint, when set, replays completed cells by Key before the
	// sweep and records each freshly completed cell after it finishes.
	Checkpoint *Checkpoint
	// OnCellStart, when set, fires as a worker picks up a cell, before its
	// first attempt. Called concurrently from worker goroutines; must be
	// safe for concurrent use. Checkpoint replays do not fire it.
	OnCellStart func(key string, index int)
	// OnCellDone, when set, fires once per finished cell: after the final
	// attempt (success or failure) and once per checkpoint replay. Called
	// concurrently from worker goroutines; must be safe for concurrent
	// use.
	OnCellDone func(CellEvent)
	// OnSweepDone, when set, fires exactly once as Run returns — after all
	// workers have drained and every cell has its final Result — with the
	// sweep's tally. Called from Run's own goroutine, never concurrently.
	OnSweepDone func(Summary)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the cells on a worker pool and returns one Result per cell
// in input order, independent of completion order. Run never fails as a
// whole: cancellation and per-cell failures are reported per Result (use
// Values to collapse them into a single error). Cells already present in
// the checkpoint are replayed without running.
func Run[T any](ctx context.Context, cells []Cell[T], opts Options) []Result[T] {
	if opts.SweepTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.SweepTimeout)
		defer cancel()
	}
	results := make([]Result[T], len(cells))
	var pending []int
	for i, c := range cells {
		results[i].Key = c.Key
		if opts.Checkpoint != nil && c.Key != "" {
			if raw, ok := opts.Checkpoint.Lookup(c.Key); ok {
				var v T
				if err := json.Unmarshal(raw, &v); err == nil {
					results[i].Value = v
					results[i].Done = true
					results[i].FromCheckpoint = true
					if opts.OnCellDone != nil {
						opts.OnCellDone(CellEvent{Key: c.Key, Index: i, FromCheckpoint: true})
					}
					continue
				}
				// Undecodable entry (e.g. the value type changed):
				// recompute and overwrite.
			}
		}
		pending = append(pending, i)
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if opts.OnCellStart != nil {
					opts.OnCellStart(cells[i].Key, i)
				}
				start := time.Now()
				results[i] = runCell(ctx, cells[i], opts, results[i])
				results[i].Duration = time.Since(start)
				if opts.OnCellDone != nil {
					ev := CellEvent{
						Key:      cells[i].Key,
						Index:    i,
						Duration: results[i].Duration,
						Attempts: results[i].Attempts,
					}
					if ce := results[i].Err; ce != nil {
						ev.Panicked = ce.Panicked
						ev.Err = ce
					}
					opts.OnCellDone(ev)
				}
			}
		}()
	}
feed:
	for _, i := range pending {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	// Cells neither completed nor failed were cancelled before starting.
	for i := range results {
		if !results[i].Done && results[i].Err == nil {
			err := context.Cause(ctx)
			if err == nil {
				err = ctx.Err()
			}
			results[i].Err = &CellError{Key: results[i].Key, Err: err, Cause: context.Cause(ctx)}
		}
	}
	if opts.OnSweepDone != nil {
		opts.OnSweepDone(Summarize(results))
	}
	return results
}

// runCell drives one cell through its bounded attempts.
func runCell[T any](ctx context.Context, cell Cell[T], opts Options, res Result[T]) Result[T] {
	var last *CellError
	for attempt := 1; attempt <= 1+max(opts.Retries, 0); attempt++ {
		if err := ctx.Err(); err != nil {
			if last == nil {
				last = &CellError{Key: cell.Key, Attempts: attempt - 1, Err: err, Cause: context.Cause(ctx)}
			}
			break
		}
		res.Attempts = attempt
		v, cerr := runAttempt(ctx, cell, opts.CellTimeout)
		if cerr == nil {
			res.Value, res.Done, res.Err = v, true, nil
			if opts.Checkpoint != nil && cell.Key != "" {
				opts.Checkpoint.record(cell.Key, v)
			}
			return res
		}
		cerr.Key, cerr.Attempts = cell.Key, attempt
		last = cerr
		if Permanent(cerr.Err) {
			break
		}
		if opts.RetryIf != nil && !opts.RetryIf(cerr.Err) {
			break
		}
		if opts.Backoff != nil && attempt <= opts.Retries {
			if !sleep(ctx, opts.Backoff(attempt)) {
				if last.Cause == nil {
					last.Cause = context.Cause(ctx)
				}
				break // cancelled mid-backoff; the last attempt's failure stands
			}
		}
	}
	res.Err = last
	return res
}

// sleep waits for d, returning false if ctx is cancelled first.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Permanent reports whether err (or any error it wraps) declares itself
// non-retryable by implementing `Permanent() bool` returning true.
// Deterministic failures — a selfcheck divergence, a corrupt trace — mark
// themselves permanent so retries don't burn attempts reproducing them.
func Permanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// runAttempt runs a single attempt with panic isolation and the per-cell
// deadline applied.
func runAttempt[T any](ctx context.Context, cell Cell[T], timeout time.Duration) (v T, cerr *CellError) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			cerr = &CellError{
				Panicked: true,
				Stack:    string(debug.Stack()),
				Err:      fmt.Errorf("panic: %v", p),
			}
		}
	}()
	got, err := cell.Run(ctx)
	if err != nil {
		cerr = &CellError{Err: err}
		if ctx.Err() != nil {
			// The attempt's context ended (per-cell deadline, sweep cancel);
			// record why so deadline-exceeded, client-cancel and server-drain
			// are distinguishable downstream.
			cerr.Cause = context.Cause(ctx)
		}
		return v, cerr
	}
	return got, nil
}

// Summary counts the per-cell outcomes of a sweep, for partial-run reports.
type Summary struct {
	Total          int
	Done           int
	FromCheckpoint int
	Failed         int // ran and failed (panic or error)
	Panicked       int
	Retried        int // needed more than one attempt (done or failed)
	NotRun         int // cancelled before starting
}

func (s Summary) String() string {
	return fmt.Sprintf("%d/%d cells done (%d from checkpoint, %d failed, %d panicked, %d retried, %d not run)",
		s.Done, s.Total, s.FromCheckpoint, s.Failed, s.Panicked, s.Retried, s.NotRun)
}

// Summarize tallies a result slice.
func Summarize[T any](rs []Result[T]) Summary {
	s := Summary{Total: len(rs)}
	for i := range rs {
		if rs[i].Attempts > 1 {
			s.Retried++
		}
		switch {
		case rs[i].Done:
			s.Done++
			if rs[i].FromCheckpoint {
				s.FromCheckpoint++
			}
		case rs[i].Err != nil && rs[i].Err.Attempts > 0:
			s.Failed++
			if rs[i].Err.Panicked {
				s.Panicked++
			}
		default:
			s.NotRun++
		}
	}
	return s
}

// SweepError reports an incomplete sweep: which cells failed or never ran,
// plus the overall tally for partial-grid reporting.
type SweepError struct {
	Summary Summary
	// Errs holds the failed and not-run cells' errors in input order.
	Errs []*CellError
}

func (e *SweepError) Error() string {
	msg := fmt.Sprintf("sweep incomplete: %s", e.Summary)
	if len(e.Errs) > 0 {
		msg += fmt.Sprintf("; first: %v", e.Errs[0])
	}
	return msg
}

// Unwrap exposes the individual cell errors to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Errs))
	for i, ce := range e.Errs {
		out[i] = ce
	}
	return out
}

// Canceled reports whether the sweep stopped on context cancellation (as
// opposed to cells failing on their own).
func (e *SweepError) Canceled() bool {
	for _, ce := range e.Errs {
		if errors.Is(ce.Err, context.Canceled) || errors.Is(ce.Err, context.DeadlineExceeded) {
			return true
		}
	}
	return false
}

// Values collapses a result slice into the values in input order, or a
// *SweepError if any cell failed or never ran.
func Values[T any](rs []Result[T]) ([]T, error) {
	vals := make([]T, len(rs))
	var errs []*CellError
	for i := range rs {
		if rs[i].Done {
			vals[i] = rs[i].Value
			continue
		}
		errs = append(errs, rs[i].Err)
	}
	if len(errs) > 0 {
		return nil, &SweepError{Summary: Summarize(rs), Errs: errs}
	}
	return vals, nil
}
