// Package service is the long-running sweep server behind cmd/cachesimd:
// an HTTP/JSON job API that accepts config-grid sweep requests, shards
// their cells through the internal/runner pool, memoizes completed cells
// by config hash in a shared on-disk cache, and records every job in a
// crash-safe write-ahead journal so an in-flight sweep survives a kill -9.
// The robustness envelope — token-bucket admission with load shedding,
// per-request deadlines, retry with exponential backoff and jitter,
// graceful drain on SIGTERM — is the point: the paper's method is sweeping
// large design grids, and a design-space query service is only worth
// running if it stays up while doing so.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workload"
)

// DefaultScale is the workload scale a request gets when it names none:
// small enough for interactive queries, large enough to exercise the warm
// window.
const DefaultScale = 0.05

// MaxSizeKB bounds a request's total L1 size, 16× the paper's largest
// (4 MB). Per-line cache state is allocated up front, so an unbounded size
// could exhaust the server's memory, or overflow the allocation size.
const MaxSizeKB = 65536

// GridRequest is one sweep job: the cross product of the listed axes, each
// cell simulated against each named workload. Empty axes mean "the paper's
// base value" (one grid column at the default).
type GridRequest struct {
	// Workloads names Table 1 workloads (see internal/workload).
	Workloads []string `json:"workloads"`
	// Scale is the workload scale; 0 means DefaultScale.
	Scale float64 `json:"scale,omitempty"`
	// SizesKB sweeps total L1 size in KB (split evenly I/D).
	SizesKB []int `json:"sizes_kb,omitempty"`
	// Assocs sweeps set associativity.
	Assocs []int `json:"assocs,omitempty"`
	// BlocksWords sweeps block size in words.
	BlocksWords []int `json:"blocks_words,omitempty"`
	// CycleNs overrides the cycle time for every cell; 0 keeps the base.
	CycleNs int `json:"cycle_ns,omitempty"`
	// TimeoutMs is the per-request deadline for the whole job; 0 means the
	// server default. The deadline propagates into every cell's context.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Validate rejects malformed requests before they cost anything.
func (r *GridRequest) Validate(maxCells int) error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("service: request names no workloads (known: %s)",
			strings.Join(workload.Names(), ", "))
	}
	for _, name := range r.Workloads {
		if _, err := workload.ByName(name); err != nil {
			return fmt.Errorf("service: %v (known: %s)", err, strings.Join(workload.Names(), ", "))
		}
	}
	if r.Scale < 0 || r.Scale > 4 {
		return fmt.Errorf("service: scale %v outside (0, 4]", r.Scale)
	}
	for _, axis := range []struct {
		name string
		vals []int
	}{{"sizes_kb", r.SizesKB}, {"assocs", r.Assocs}, {"blocks_words", r.BlocksWords}} {
		for _, v := range axis.vals {
			if v <= 0 {
				return fmt.Errorf("service: %s value %d must be positive", axis.name, v)
			}
		}
	}
	for _, kb := range r.SizesKB {
		if kb > MaxSizeKB {
			return fmt.Errorf("service: sizes_kb value %d exceeds the %d KB limit", kb, MaxSizeKB)
		}
	}
	if r.CycleNs < 0 || r.TimeoutMs < 0 {
		return fmt.Errorf("service: negative cycle_ns or timeout_ms")
	}
	if n := r.cellCount(); n > maxCells {
		return fmt.Errorf("service: grid has %d cells, limit %d", n, maxCells)
	}
	return nil
}

func orBase(axis []int) []int {
	if len(axis) == 0 {
		return []int{0} // 0 = keep the base system's value
	}
	return axis
}

func (r *GridRequest) scale() float64 {
	if r.Scale == 0 {
		return DefaultScale
	}
	return r.Scale
}

// cellCount is the number of cells in the grid. It saturates at
// math.MaxInt instead of wrapping, so a grid too large to count still
// exceeds Validate's limit.
func (r *GridRequest) cellCount() int {
	n := len(r.Workloads)
	for _, axis := range [][]int{r.SizesKB, r.Assocs, r.BlocksWords} {
		l := len(orBase(axis))
		if n > math.MaxInt/l {
			return math.MaxInt
		}
		n *= l
	}
	return n
}

// CellSpec identifies one grid cell: the config variation plus the
// stimulus. Its JSON encoding feeds runner.Key, so two requests that share
// a cell — across jobs, users and server restarts — hash to the same key
// and hit the memoized result.
type CellSpec struct {
	Workload   string  `json:"workload"`
	Scale      float64 `json:"scale"`
	SizeKB     int     `json:"size_kb"`
	Assoc      int     `json:"assoc"`
	BlockWords int     `json:"block_words"`
	CycleNs    int     `json:"cycle_ns"`
}

// Key is the cell's memoization identity.
func (c CellSpec) Key() string { return runner.Key("cachesimd/cell/v1", c) }

// CellResult is the warm-window outcome of one cell. The integer counters
// are bit-deterministic for a fixed spec — the soak test compares them
// against direct in-process simulation — and the floats derive from them.
type CellResult struct {
	Key        string  `json:"key"`
	Workload   string  `json:"workload"`
	SizeKB     int     `json:"size_kb,omitempty"`
	Assoc      int     `json:"assoc,omitempty"`
	BlockWords int     `json:"block_words,omitempty"`
	CycleNs    int     `json:"cycle_ns"`
	Refs       int64   `json:"refs"`
	Cycles     int64   `json:"cycles"`
	LoadMisses int64   `json:"load_misses"`
	IfMisses   int64   `json:"ifetch_misses"`
	CPI        float64 `json:"cpi"`
	ExecMs     float64 `json:"exec_ms"`
}

// Simulate runs the cell: build the varied system, synthesize the
// workload, replay it. ctx is consulted between the expensive phases; the
// inner simulation is finite and bounded by the cell's scale. It is the
// reference for a served cell: a job runs the same code with one trace set
// shared by all its cells, Simulate with a set of its own.
func (c CellSpec) Simulate(ctx context.Context) (CellResult, error) {
	return c.simulate(ctx, newTraceSet(nil))
}

// simulate runs the cell on the trace traces holds for its workload and
// scale.
func (c CellSpec) simulate(ctx context.Context, traces *traceSet) (CellResult, error) {
	var vs []config.Variation
	if c.SizeKB > 0 {
		vs = append(vs, config.WithTotalSizeKB(c.SizeKB))
	}
	if c.Assoc > 0 {
		vs = append(vs, config.WithAssoc(c.Assoc))
	}
	if c.BlockWords > 0 {
		vs = append(vs, config.WithBlockWords(c.BlockWords))
	}
	if c.CycleNs > 0 {
		vs = append(vs, config.WithCycleNs(c.CycleNs))
	}
	spec := config.Default().Apply(vs...)
	cfg, err := spec.System()
	if err != nil {
		return CellResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return CellResult{}, err
	}
	tr, err := traces.get(ctx, c.traceKey())
	if err != nil {
		return CellResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return CellResult{}, err
	}
	sys, err := system.New(cfg)
	if err != nil {
		return CellResult{}, err
	}
	res, err := sys.Run(tr)
	if err != nil {
		return CellResult{}, err
	}
	w := res.Warm
	out := CellResult{
		Key:        c.Key(),
		Workload:   c.Workload,
		SizeKB:     c.SizeKB,
		Assoc:      c.Assoc,
		BlockWords: c.BlockWords,
		CycleNs:    res.CycleNs,
		Refs:       w.Refs,
		Cycles:     w.Cycles,
		LoadMisses: w.LoadMisses,
		IfMisses:   w.IfetchMisses,
		ExecMs:     res.ExecTimeNs() / 1e6,
	}
	if w.Refs > 0 {
		out.CPI = float64(w.Cycles) / float64(w.Refs)
	}
	return out, nil
}

// Cells expands the request into its grid, in deterministic order.
func (r *GridRequest) Cells() []CellSpec {
	var out []CellSpec
	for _, wl := range r.Workloads {
		for _, size := range orBase(r.SizesKB) {
			for _, assoc := range orBase(r.Assocs) {
				for _, block := range orBase(r.BlocksWords) {
					out = append(out, CellSpec{
						Workload:   wl,
						Scale:      r.scale(),
						SizeKB:     size,
						Assoc:      assoc,
						BlockWords: block,
						CycleNs:    r.CycleNs,
					})
				}
			}
		}
	}
	return out
}

// ConfigHash identifies the whole request (axes normalized), for ledger
// records and cross-user memoization reporting.
func (r *GridRequest) ConfigHash() string {
	norm := *r
	norm.Scale = r.scale()
	norm.TimeoutMs = 0 // a deadline does not change what is computed
	return runner.Key("cachesimd/job/v1", norm)
}

// JobState is a job's lifecycle position.
type JobState string

const (
	// StateQueued: accepted and journaled, waiting for a job worker.
	StateQueued JobState = "queued"
	// StateRunning: cells are on the runner pool.
	StateRunning JobState = "running"
	// StateDone: every cell completed; results are available.
	StateDone JobState = "done"
	// StateFailed: terminal failure (a cell failed permanently, the retry
	// budget ran out, or the job deadline passed).
	StateFailed JobState = "failed"
	// StateCanceled: the client asked for cancellation.
	StateCanceled JobState = "canceled"
	// StateInterrupted: the server stopped (drain abort or crash) before
	// the job finished; the journal will requeue it on the next start.
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// CellTally counts a job's cell outcomes so far.
type CellTally struct {
	Planned  int `json:"planned"`
	Done     int `json:"done"`
	Replayed int `json:"replayed"` // memoized cells served from the cache
	Failed   int `json:"failed"`
	Retried  int `json:"retried"`
}

// JobStatus is the poll view of one job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// RequestID is the X-Request-ID of the submitting request (client-
	// supplied or generated).
	RequestID  string    `json:"request_id,omitempty"`
	ConfigHash string    `json:"config_hash"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started,omitempty"`
	Finished   time.Time `json:"finished,omitempty"`
	Cells      CellTally `json:"cells"`
	// Error is the terminal failure, empty otherwise.
	Error string `json:"error,omitempty"`
	// Cause distinguishes why a job stopped early: "deadline",
	// "client-cancel", "drain" — from context.Cause threaded through the
	// runner's CellError.
	Cause string `json:"cause,omitempty"`
}

// Event is one line of a job's NDJSON progress stream.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// Type is "state" (job transition) or "cell" (one cell finished).
	Type  string   `json:"type"`
	State JobState `json:"state,omitempty"`
	Cell  string   `json:"cell,omitempty"`
	// Attempts is how many times a cell event's cell ran, retries
	// included; absent for a cell served from the memo.
	Attempts int `json:"attempts,omitempty"`
	// Tally snapshots progress at the event.
	Tally CellTally `json:"tally"`
	Err   string    `json:"err,omitempty"`
}

// Job is one submitted sweep. All fields behind mu; accessors copy.
type Job struct {
	id  string
	req GridRequest

	runCtx context.Context         // dies on client cancel, drain abort or kill
	cancel context.CancelCauseFunc // client cancellation, armed at submit

	// accepted is the status at submission, which the 202 reply reports:
	// a job worker may pick the job up before the reply is written.
	accepted JobStatus

	mu       sync.Mutex
	status   JobStatus
	events   []Event
	changed  chan struct{} // closed and replaced on every event
	results  []CellResult
	restored bool // journal-replayed from a previous server life
}

func newJob(id, reqID string, req GridRequest, ctx context.Context, cancel context.CancelCauseFunc) *Job {
	j := &Job{
		id:     id,
		req:    req,
		runCtx: ctx,
		cancel: cancel,
		status: JobStatus{
			ID:         id,
			State:      StateQueued,
			RequestID:  reqID,
			ConfigHash: req.ConfigHash(),
			Submitted:  time.Now().UTC(),
			Cells:      CellTally{Planned: req.cellCount()},
		},
		changed: make(chan struct{}),
	}
	j.accepted = j.status
	return j
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// ctx is the job's run context; context.Cause explains any cancellation.
func (j *Job) ctx() context.Context { return j.runCtx }

// Request returns the submitted request.
func (j *Job) Request() GridRequest { return j.req }

// Status returns a copy of the current status.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Results returns the job's cell results (nil until done).
func (j *Job) Results() []CellResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results
}

// Cancel asks the job to stop with the given cause. Safe at any state;
// terminal jobs ignore it.
func (j *Job) Cancel(cause error) {
	if j.cancel != nil {
		j.cancel(cause)
	}
}

// publishLocked appends an event and wakes streamers. Callers hold j.mu.
func (j *Job) publishLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.Time = time.Now().UTC()
	ev.Tally = j.status.Cells
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// setState transitions the job and publishes a state event.
func (j *Job) setState(s JobState, errMsg, cause string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.State = s
	now := time.Now().UTC()
	switch s {
	case StateRunning:
		j.status.Started = now
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		j.status.Finished = now
	}
	if errMsg != "" {
		j.status.Error = errMsg
	}
	if cause != "" {
		j.status.Cause = cause
	}
	j.publishLocked(Event{Type: "state", State: s, Err: errMsg})
}

// noteCell folds one runner cell event into the tally and publishes it.
func (j *Job) noteCell(ev runner.CellEvent) {
	errMsg := ""
	if ev.Err != nil {
		errMsg = ev.Err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case ev.Err != nil:
		j.status.Cells.Failed++
	case ev.FromCheckpoint:
		j.status.Cells.Replayed++
		j.status.Cells.Done++
	default:
		j.status.Cells.Done++
	}
	if ev.Attempts > 1 {
		j.status.Cells.Retried++
	}
	j.publishLocked(Event{Type: "cell", Cell: ev.Key, Attempts: ev.Attempts, Err: errMsg})
}

// setResults stores the final cell results, sorted by key for determinism.
func (j *Job) setResults(rs []CellResult) {
	sort.Slice(rs, func(a, b int) bool { return rs[a].Key < rs[b].Key })
	j.mu.Lock()
	j.results = rs
	j.mu.Unlock()
}

// EventsSince returns the events from seq onward, a channel that closes
// when more arrive, and whether the job is terminal (no more events will
// ever arrive once the returned slice is drained).
func (j *Job) EventsSince(seq int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	return evs, j.changed, j.status.State.Terminal()
}

// ResumeSeq clamps a client's ?from= cursor for this job. Event sequence
// numbers restart from 0 in each server life; a cursor beyond the current
// log can only come from a stream of a previous life (the journal replay
// rebuilt this job with a fresh, shorter log), so the honest resume is a
// full replay of the new life rather than waiting forever for sequence
// numbers that will never exist again.
func (j *Job) ResumeSeq(seq int) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.restored && seq > len(j.events) {
		return 0
	}
	return seq
}

// noteRestored publishes the synthetic state event a journal-replayed job
// starts its new life with, so resumed event streams are anchored and a
// restored terminal job still ends its stream with a state line.
func (j *Job) noteRestored() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(Event{Type: "state", State: j.status.State})
}

// newJobID returns a collision-resistant job identifier; randomness (not a
// timestamp) because many jobs arrive per millisecond and IDs must also
// never collide with journaled jobs from previous server lives.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: job id entropy: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}
