package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ledger"
)

// testConfig returns a Config sized for fast tests over dir.
func testConfig(dir string) Config {
	return Config{
		DataDir:     dir,
		JobWorkers:  2,
		CellWorkers: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
}

// smallGrid is a 2-cell request quick enough for unit tests.
func smallGrid() GridRequest {
	return GridRequest{Workloads: []string{"mu3"}, Scale: 0.01, SizesKB: []int{2, 4}}
}

// waitTerminal polls until the job leaves the running states.
func waitTerminal(t *testing.T, job *Job, within time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(within)
	seq := 0
	for {
		_, changed, terminal := job.EventsSince(seq)
		st := job.Status()
		if terminal || st.State == StateInterrupted {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", job.ID(), st.State, within)
		}
		select {
		case <-changed:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// waitFirstCell blocks until the job has at least one completed cell.
func waitFirstCell(t *testing.T, job *Job, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	seq := 0
	for {
		evs, changed, terminal := job.EventsSince(seq)
		for _, ev := range evs {
			if ev.Type == "cell" {
				return
			}
		}
		seq += len(evs)
		if terminal || time.Now().After(deadline) {
			t.Fatalf("no cell event within %v (job %s)", within, job.Status().State)
		}
		select {
		case <-changed:
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	job, err := s.Submit(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s / %s)", st.State, st.Error, st.Cause)
	}
	if st.Cells.Done != 2 || st.Cells.Failed != 0 {
		t.Errorf("tally = %+v", st.Cells)
	}
	results := job.Results()
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Refs == 0 || r.Cycles == 0 || r.CPI <= 0 {
			t.Errorf("empty result %+v", r)
		}
	}
	// The two cells differ only in cache size; the larger cache cannot
	// miss more.
	bySize := map[int]CellResult{}
	for _, r := range results {
		bySize[r.SizeKB] = r
	}
	if bySize[4].LoadMisses+bySize[4].IfMisses > bySize[2].LoadMisses+bySize[2].IfMisses {
		t.Errorf("4KB misses more than 2KB: %+v vs %+v", bySize[4], bySize[2])
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}

	// The job reached the ledger.
	recs, _, err := ledger.Read(ledger.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Tool != "cachesimd" || recs[0].RunID != job.ID() {
		t.Errorf("ledger = %+v", recs)
	}
	if recs[0].Cells.Done != 2 || recs[0].TotalCycles == 0 || recs[0].CPI <= 0 {
		t.Errorf("ledger record empty: %+v", recs[0])
	}
}

// TestProfiledJobRecord: with Config.ProfileDir each job records through
// its own run. Two concurrent jobs share the one process-global CPU
// profiler, so at least one is profiled; every capture directory is named
// by a ledgered job's run ID and holds that job's CPU profile.
func TestProfiledJobRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.ProfileDir = filepath.Join(dir, "profiles")
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var jobs []*Job
	for _, scale := range []float64{0.01, 0.02} {
		req := smallGrid()
		req.Scale = scale
		job, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if st := waitTerminal(t, job, 30*time.Second); st.State != StateDone {
			t.Fatalf("job ended %s (%s / %s)", st.State, st.Error, st.Cause)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ledger.Read(ledger.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("ledger holds %d records, want %d", len(recs), len(jobs))
	}
	ids := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if rec.Time.IsZero() || rec.Env.GoVersion == "" || rec.Cells.Planned != 2 {
			t.Errorf("record identity, env or shape missing: %+v", rec)
		}
		ids[rec.RunID] = true
	}
	captures, err := os.ReadDir(cfg.ProfileDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(captures) == 0 {
		t.Error("no job was profiled")
	}
	for _, c := range captures {
		if !ids[c.Name()] {
			t.Errorf("capture %s is not under a ledgered run ID", c.Name())
		}
		if _, err := os.Stat(filepath.Join(cfg.ProfileDir, c.Name(), "cpu.pprof")); err != nil {
			t.Errorf("capture %s holds no CPU profile: %v", c.Name(), err)
		}
	}
}

// TestResultsBitIdenticalToDirect: the service returns exactly what a
// direct in-process simulation of each cell returns. Four cell workers
// share each workload's trace through the job's trace set, while every
// direct Simulate generates its own.
func TestResultsBitIdenticalToDirect(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.CellWorkers = 4
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	req := GridRequest{Workloads: []string{"mu3", "rd1n3"}, Scale: 0.01, SizesKB: []int{2, 8, 32}, Assocs: []int{1, 2}}
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job, 30*time.Second); st.State != StateDone {
		t.Fatalf("job ended %s", st.State)
	}
	got := job.Results()
	byKey := map[string]CellResult{}
	for _, r := range got {
		byKey[r.Key] = r
	}
	for _, cs := range req.Cells() {
		want, err := cs.Simulate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(byKey[cs.Key()], want) {
			t.Errorf("cell %v:\n service %+v\n direct  %+v", cs, byKey[cs.Key()], want)
		}
	}
}

func TestMemoizationAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	j1, err := s.Submit(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1, 30*time.Second)
	j2, err := s.Submit(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j2, 30*time.Second)
	if st.Cells.Replayed != 2 {
		t.Errorf("second job replayed %d cells, want 2: %+v", st.Cells.Replayed, st.Cells)
	}
	if !reflect.DeepEqual(j1.Results(), j2.Results()) {
		t.Error("memoized results differ from computed ones")
	}
}

func TestClientCancel(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.CellWorkers = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	// A grid big enough that cancellation lands mid-run.
	req := GridRequest{Workloads: []string{"mu3"}, Scale: 0.5, SizesKB: []int{1, 2, 4, 8, 16, 32}}
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel(ErrClientCanceled)
	st := waitTerminal(t, job, 30*time.Second)
	if st.State != StateCanceled || st.Cause != "client-cancel" {
		t.Errorf("status = %+v", st)
	}
	// Cancellation is journaled terminal: a restart must not resurrect it.
	jobs, _, err := ReplayJournal(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	for _, jj := range jobs {
		if jj.ID == job.ID() && jj.State != StateCanceled {
			t.Errorf("journal has %s as %s", jj.ID, jj.State)
		}
	}
}

func TestJobDeadline(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	req := GridRequest{Workloads: []string{"mu3"}, Scale: 1, SizesKB: []int{1, 2, 4, 8}, TimeoutMs: 1}
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job, 30*time.Second)
	if st.State != StateFailed || st.Cause != "deadline" {
		t.Errorf("status = %+v", st)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(smallGrid()); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining = %v", err)
	}
}

// TestQueueDepthShedding: with no workers consuming, the queue fills to
// MaxQueue and the next submission sheds with a queue ShedError.
func TestQueueDepthShedding(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxQueue = 2
	s, err := Open(cfg) // deliberately never Start()ed
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(smallGrid()); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err = s.Submit(smallGrid())
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "queue" {
		t.Errorf("overfull submit = %v", err)
	}
	if shed != nil && shed.RetryAfter <= 0 {
		t.Errorf("no retry-after hint: %+v", shed)
	}
	s.Kill()
}

func TestRateShedding(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SubmitRate = 0.001
	cfg.SubmitBurst = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(smallGrid()); err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(smallGrid())
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "rate" || shed.RetryAfter <= 0 {
		t.Errorf("rate-limited submit = %v", err)
	}
	s.Kill()
}

// TestKillRestartRequeues: a kill -9 stand-in mid-run loses nothing — the
// journal requeues the interrupted job and the restarted service finishes
// it, reusing whatever cells were checkpointed.
func TestKillRestartRequeues(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.CellWorkers = 1
	// Slow every cell so the kill deterministically lands mid-job: with one
	// cell worker, three more slow cells follow the first completion.
	cfg.Faults = &faultinject.Plan{SlowRate: 1, SlowFor: 150 * time.Millisecond}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	req := GridRequest{Workloads: []string{"mu3"}, Scale: 0.2, SizesKB: []int{1, 2, 4, 8}}
	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first completed cell, then kill without warning.
	waitFirstCell(t, job, 10*time.Second)
	s.Kill()
	waitTerminal(t, job, 10*time.Second)

	s2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	job2, ok := s2.Job(job.ID())
	if !ok {
		t.Fatal("job lost across restart")
	}
	if st := job2.Status(); st.State != StateQueued {
		t.Fatalf("restored job is %s, want queued", st.State)
	}
	s2.Start()
	st := waitTerminal(t, job2, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("restored job ended %s (%s)", st.State, st.Error)
	}
	if len(job2.Results()) != 4 {
		t.Errorf("restored job has %d results", len(job2.Results()))
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredDoneJobServesResults: results of a finished job survive a
// restart via the memoized cell cache, rebuilt lazily on first request.
func TestRestoredDoneJobServesResults(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	job, err := s.Submit(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job, 30*time.Second)
	want := job.Results()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	job2, ok := s2.Job(job.ID())
	if !ok {
		t.Fatal("done job lost across restart")
	}
	if st := job2.Status(); st.State != StateDone {
		t.Fatalf("restored job is %s", st.State)
	}
	got, err := s2.ResultsFor(context.Background(), job2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored results differ:\n got %+v\nwant %+v", got, want)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	cases := []GridRequest{
		{},                                      // no workloads
		{Workloads: []string{"nope"}},           // unknown workload
		{Workloads: []string{"mu3"}, Scale: -1}, // bad scale
		{Workloads: []string{"mu3"}, SizesKB: []int{0}},                               // bad axis value
		{Workloads: []string{"mu3"}, SizesKB: []int{1, 2, 4, 8}, Assocs: []int{1, 2}}, // too big for maxCells=4
		{Workloads: []string{"mu3"}, TimeoutMs: -5},                                   // negative timeout
	}
	for i, req := range cases {
		if err := req.Validate(4); err == nil {
			t.Errorf("case %d admitted: %+v", i, req)
		}
	}
	good := smallGrid()
	if err := good.Validate(4); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

// TestValidateBoundsCacheSize: a total size above MaxSizeKB is rejected
// before any cache is allocated; MaxSizeKB itself is admitted.
func TestValidateBoundsCacheSize(t *testing.T) {
	for _, kb := range []int{MaxSizeKB + 1, 4194304, 1 << 50} {
		req := GridRequest{Workloads: []string{"mu3"}, SizesKB: []int{4, kb}}
		err := req.Validate(4)
		if err == nil || !strings.Contains(err.Error(), "sizes_kb") {
			t.Errorf("sizes_kb %d: err = %v, want a sizes_kb limit error", kb, err)
		}
	}
	req := GridRequest{Workloads: []string{"mu3"}, SizesKB: []int{MaxSizeKB}}
	if err := req.Validate(4); err != nil {
		t.Errorf("sizes_kb %d rejected: %v", MaxSizeKB, err)
	}
}

func TestConfigHashIgnoresDeadline(t *testing.T) {
	a, b := smallGrid(), smallGrid()
	b.TimeoutMs = 5000
	if a.ConfigHash() != b.ConfigHash() {
		t.Error("deadline changed the config hash")
	}
	b.SizesKB = []int{2, 8}
	if a.ConfigHash() == b.ConfigHash() {
		t.Error("different grids share a config hash")
	}
}
