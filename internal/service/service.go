package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/perfobs"
	"repro/internal/runner"
)

// Cancellation causes threaded through context.Cause into the runner's
// CellError, so job statuses can say *why* work stopped.
var (
	// ErrClientCanceled: the client asked for the job to stop.
	ErrClientCanceled = errors.New("canceled by client")
	// ErrJobDeadline: the per-request deadline elapsed.
	ErrJobDeadline = errors.New("job deadline exceeded")
	// ErrDrainAborted: the server's drain deadline passed with the job
	// still running; it stays non-terminal and resumes on the next start.
	ErrDrainAborted = errors.New("server drain aborted the job")
	// ErrKilled: the in-process stand-in for kill -9 (tests).
	ErrKilled = errors.New("server killed")
	// ErrDraining: the server no longer admits work.
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// Config parameterizes a Service. Zero values mean the stated defaults.
type Config struct {
	// DataDir holds the journal, the memoized cell cache and the ledger.
	DataDir string
	// JobWorkers bounds concurrently running jobs (default 2).
	JobWorkers int
	// CellWorkers bounds the runner pool inside each job (default
	// GOMAXPROCS / JobWorkers, at least 1).
	CellWorkers int
	// MaxQueue bounds queued-but-not-running jobs; beyond it submissions
	// shed with 429 (default 64).
	MaxQueue int
	// SubmitRate and SubmitBurst parameterize the admission token bucket
	// (default 50/s, burst 100).
	SubmitRate  float64
	SubmitBurst int
	// Retries is each cell's extra-attempt budget for transient failures
	// (default 2). Permanent errors (check.Divergence and anything else
	// implementing Permanent) never retry.
	Retries int
	// BackoffBase/BackoffMax shape the exponential backoff with jitter
	// between cell retries (defaults 10ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CellTimeout bounds each cell attempt (default none).
	CellTimeout time.Duration
	// DefaultJobTimeout applies when a request carries no deadline;
	// MaxJobTimeout caps requested deadlines (defaults: none).
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration
	// MaxCellsPerJob rejects oversized grids at validation (default 4096).
	MaxCellsPerJob int
	// ClientRate and ClientBurst parameterize per-client quota buckets,
	// charged the request's cost estimate (GridRequest.Cost). ClientRate 0
	// disables quotas entirely (the default — single-tenant servers need no
	// fairness layer).
	ClientRate  float64
	ClientBurst int
	// MaxClients bounds tracked quota buckets; the idlest is evicted
	// beyond it (default 1024).
	MaxClients int
	// BreakerThreshold is how many consecutive journal or cell-cache write
	// failures trip the storage circuit breaker into degraded mode
	// (default 3).
	BreakerThreshold int
	// ProbeInterval is how often degraded mode probes storage for recovery
	// (default 2s). It doubles as the Retry-After on degraded refusals.
	ProbeInterval time.Duration
	// ProfileDir enables per-job CPU/heap profile capture into this
	// directory (one subdirectory per job, bounded retention). The Go CPU
	// profiler is process-global, so when jobs overlap only the first gets
	// profiled and the rest run unprofiled — capture never delays a job.
	ProfileDir string
	// Faults injects deterministic chaos into every job's cells (tests).
	Faults *faultinject.Plan
	// JournalWrap interposes on journal writes (fault injection; tests).
	JournalWrap func(io.Writer) io.Writer
	// CellWrap interposes on cell-cache writes (fault injection; tests).
	CellWrap func(io.Writer) io.Writer
	// Logger receives structured events; nil discards.
	Logger *slog.Logger
	// Registry receives service and sweep metrics; nil creates one.
	Registry *obs.Registry
}

func (c *Config) fill() {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.CellWorkers <= 0 {
		c.CellWorkers = runtime.GOMAXPROCS(0) / c.JobWorkers
		if c.CellWorkers < 1 {
			c.CellWorkers = 1
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.SubmitRate <= 0 {
		c.SubmitRate = 50
	}
	if c.SubmitBurst <= 0 {
		c.SubmitBurst = 100
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.MaxCellsPerJob <= 0 {
		c.MaxCellsPerJob = 4096
	}
	if c.ClientBurst <= 0 {
		c.ClientBurst = 25
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 1024
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// Service is the sweep job manager: admission, queue, job workers, the
// shared memoized cell cache, the write-ahead journal and the ledger.
type Service struct {
	cfg    Config
	log    *slog.Logger
	reg    *obs.Registry
	bucket *TokenBucket
	start  time.Time

	journal *Journal
	cells   *runner.Checkpoint
	quota   *ClientQuota // nil when quotas are disabled

	// ctx dies on Kill (hard stop); draining is the soft path.
	ctx  context.Context
	kill context.CancelCauseFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	queue    chan *Job
	draining bool
	drained  chan struct{} // closed when the last worker exits after drain

	// breaker holds the storage circuit state (self-locking — observations
	// fire from write paths that may hold mu). unjournaled (under mu)
	// holds terminal journal entries that could not be persisted while
	// degraded; recovery re-appends them so the next restart does not
	// requeue finished jobs.
	breaker     *Breaker
	unjournaled map[string]journalEntry

	stopProbe chan struct{} // closes the prober goroutine
	probeOnce sync.Once

	wg sync.WaitGroup
}

// Open builds a service over cfg.DataDir: creates the directory, opens the
// journal and cell cache, and replays the journal — terminal jobs are
// restored for status/result queries, in-flight and queued jobs are
// requeued. Call Start to begin executing.
func Open(cfg Config) (*Service, error) {
	cfg.fill()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	// The service owns its DataDir ledger exclusively, so it is the one
	// place a ledger repair is race-free: run it before anything appends.
	ledgerScan, err := ledger.Repair(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	replayed, replayStats, err := ReplayJournal(filepath.Join(cfg.DataDir, JournalName))
	if err != nil {
		return nil, err
	}
	journal, err := OpenJournal(filepath.Join(cfg.DataDir, JournalName), cfg.JournalWrap)
	if err != nil {
		return nil, err
	}
	cells, err := runner.OpenCheckpoint(filepath.Join(cfg.DataDir, CellCacheName))
	if err != nil {
		journal.Close()
		return nil, err
	}
	if cfg.CellWrap != nil {
		cells.WrapWriter(cfg.CellWrap)
	}
	ctx, kill := context.WithCancelCause(context.Background())
	s := &Service{
		cfg:         cfg,
		log:         cfg.Logger,
		reg:         cfg.Registry,
		bucket:      NewTokenBucket(cfg.SubmitRate, cfg.SubmitBurst),
		start:       time.Now(),
		journal:     journal,
		cells:       cells,
		ctx:         ctx,
		kill:        kill,
		jobs:        make(map[string]*Job),
		drained:     make(chan struct{}),
		breaker:     NewBreaker(cfg.BreakerThreshold),
		unjournaled: make(map[string]journalEntry),
		stopProbe:   make(chan struct{}),
	}
	if cfg.ClientRate > 0 {
		s.quota = NewClientQuota(cfg.ClientRate, cfg.ClientBurst, cfg.MaxClients)
	}
	// Pre-register the full metric catalog so a fresh server's /metrics
	// exposes every series at zero instead of growing them as code paths
	// first fire, and attach journal latency timings.
	s.reg.RegisterCatalog()
	journal.SetMetrics(
		s.reg.Timing(obs.MJournalAppendLatency),
		s.reg.Timing(obs.MJournalFsyncLatency),
	)
	// The breaker observes every journal and cell-cache persistence
	// attempt; enough consecutive failures flip the service degraded.
	journal.SetOnResult(s.observeStorage("journal"))
	cells.SetOnWrite(s.observeStorage("cell-cache"))
	// Surface what the opening integrity scans found.
	cellScan := cells.ScanStats()
	s.reg.Counter(obs.MJournalQuarantined).Add(int64(replayStats.Scan.Quarantined))
	s.reg.Counter(obs.MCellsQuarantined).Add(int64(cellScan.Quarantined))
	s.reg.Counter(obs.MLedgerQuarantined).Add(int64(ledgerScan.Quarantined))
	if q := replayStats.Scan.Quarantined + cellScan.Quarantined + ledgerScan.Quarantined; q > 0 {
		s.log.Warn("corrupt records quarantined on open",
			"journal", replayStats.Scan.Quarantined,
			"cells", cellScan.Quarantined,
			"ledger", ledgerScan.Quarantined)
	}
	// The queue must hold every requeued job plus MaxQueue fresh ones;
	// Submit checks depth under s.mu so sends never block.
	var pending []*Job
	for _, jj := range replayed {
		jobCtx, cancel := context.WithCancelCause(s.ctx)
		job := newJob(jj.ID, jj.ReqID, jj.Client, jj.Req, jobCtx, cancel)
		job.mu.Lock()
		job.restored = true
		job.status.Submitted = jj.Submitted
		switch jj.State {
		case StateDone:
			job.status.State = StateDone
			job.status.Cells.Done = job.status.Cells.Planned
		case StateFailed:
			job.status.State = StateFailed
			job.status.Error, job.status.Cause = jj.Err, jj.Cause
		case StateCanceled:
			job.status.State = StateCanceled
		default:
			// Queued or running when the last process died: requeue. The
			// memoized cell cache turns the re-run into a fast replay of
			// whatever had finished.
			pending = append(pending, job)
		}
		job.mu.Unlock()
		// Anchor the new life's event log: sequence numbers restart at 0
		// after a replay, and streams resumed with a stale ?from= cursor
		// replay from here (see Job.ResumeSeq).
		job.noteRestored()
		s.jobs[jj.ID] = job
		s.order = append(s.order, jj.ID)
	}
	s.queue = make(chan *Job, cfg.MaxQueue+len(pending))
	for _, job := range pending {
		s.queue <- job
	}
	s.reg.Gauge(obs.MQueueDepth).Set(int64(len(pending)))
	if replayStats.Scan.Quarantined > 0 || replayStats.Orphans > 0 || len(pending) > 0 {
		s.log.Info("journal replayed",
			"jobs", len(replayed), "requeued", len(pending),
			"quarantined", replayStats.Scan.Quarantined,
			"orphans", replayStats.Orphans,
			"legacy", replayStats.Scan.Legacy)
	}
	return s, nil
}

// Start launches the job workers. Safe to call once.
func (s *Service) Start() {
	for w := 0; w < s.cfg.JobWorkers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.reg.Gauge(obs.MQueueDepth).Add(-1)
				if s.ctx.Err() != nil {
					job.setState(StateInterrupted, "", causeName(context.Cause(s.ctx)))
					continue
				}
				s.runJob(job)
			}
		}()
	}
	go func() {
		s.wg.Wait()
		close(s.drained)
	}()
	go s.probeLoop()
}

// observeStorage builds the breaker's observer for one persistence
// surface. Paused-journal rejections are the breaker's own doing, not new
// disk evidence, so they are not counted.
func (s *Service) observeStorage(source string) func(error) {
	return func(err error) {
		if errors.Is(err, ErrJournalPaused) {
			return
		}
		if s.breaker.observe(err) {
			s.enterDegraded(source, err)
		}
	}
}

// enterDegraded flips the service into degraded mode: the journal is
// paused and the cell cache stops persisting (nothing else touches the
// sick disk), new submissions shed with 503, /readyz reports the reason,
// and the prober starts looking for recovery. In-flight jobs keep
// running — memoization still works in memory, and their terminal states
// park in unjournaled until the disk heals.
func (s *Service) enterDegraded(source string, cause error) {
	s.journal.SetPaused(true)
	s.cells.SetPersist(false)
	s.reg.Gauge(obs.MDegraded).Set(1)
	s.reg.Counter(obs.MBreakerTrips).Add(1)
	s.log.Error("storage breaker tripped; entering degraded mode",
		"source", source, "err", cause)
}

// probeLoop drives degraded-mode recovery: every ProbeInterval it writes
// one probe record through each persistence surface's full durable path;
// when both land, the service recovers. Runs for the service lifetime,
// idle while healthy.
func (s *Service) probeLoop() {
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopProbe:
			return
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		if open, _ := s.breaker.state(); !open {
			continue
		}
		s.reg.Counter(obs.MStorageProbes).Add(1)
		jerr := s.journal.Probe()
		cerr := s.cells.Probe()
		if jerr != nil || cerr != nil {
			s.log.Warn("storage probe failed", "journal_err", jerr, "cell_err", cerr)
			continue
		}
		s.exitDegraded()
	}
}

// exitDegraded restores healthy operation after a successful probe cycle:
// sticky errors are cleared, the journal unpauses, the cell cache
// persists again, and every terminal state parked while degraded is
// re-appended so a later restart replays the truth instead of requeueing
// finished jobs.
func (s *Service) exitDegraded() {
	s.journal.ClearErr()
	s.cells.ClearErr()
	s.journal.SetPaused(false)
	s.cells.SetPersist(true)
	s.breaker.reset()
	s.mu.Lock()
	parked := s.unjournaled
	s.unjournaled = make(map[string]journalEntry)
	s.mu.Unlock()
	s.reg.Gauge(obs.MDegraded).Set(0)
	flushed := 0
	for _, e := range parked {
		if err := s.journal.append(e); err != nil {
			s.log.Warn("replaying parked journal entry failed", "job", e.Job, "err", err)
			s.mu.Lock()
			s.unjournaled[e.Job] = e
			s.mu.Unlock()
			continue
		}
		flushed++
	}
	s.log.Info("storage recovered; degraded mode cleared", "flushed_entries", flushed)
}

// parkUnjournaled remembers a terminal entry that could not be journaled,
// to be re-appended when storage recovers. Re-appending is idempotent:
// replay folds duplicate terminals to the same state.
func (s *Service) parkUnjournaled(e journalEntry) {
	s.mu.Lock()
	s.unjournaled[e.Job] = e
	s.mu.Unlock()
}

// Degraded reports whether the storage breaker is open, and why.
func (s *Service) Degraded() (bool, string) {
	return s.breaker.state()
}

// Submit validates, admits, journals and enqueues a request, without any
// HTTP request context. See SubmitCtx.
func (s *Service) Submit(req GridRequest) (*Job, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx validates, admits, journals and enqueues a request. The job is
// durable once SubmitCtx returns: a crash after this point requeues it on
// restart. Shed submissions return *ShedError; a draining server returns
// ErrDraining; a degraded server (breaker open or journal paused) returns
// *DegradedError; a sick journal surfaces its write error. A request ID on
// ctx (see WithRequestID) becomes the job's RequestID.
func (s *Service) SubmitCtx(ctx context.Context, req GridRequest) (*Job, error) {
	if err := req.Validate(s.cfg.MaxCellsPerJob); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.ctx.Err() != nil {
		s.reg.Counter(obs.MShedDraining).Add(1)
		return nil, ErrDraining
	}
	if open, reason := s.breaker.state(); open {
		return nil, s.refuseDegraded(reason)
	}
	// Depth first (cheap, sheds the burst), then the client quota — before
	// the global bucket, so a greedy client is charged its own budget
	// without draining everyone's — then the global rate bucket.
	if len(s.queue) >= s.cfg.MaxQueue {
		s.reg.Counter(obs.MJobsShed).Add(1)
		s.reg.Counter(obs.MShedQueue).Add(1)
		return nil, &ShedError{Reason: "queue", RetryAfter: s.estimateDrain()}
	}
	client := ClientFrom(ctx)
	if s.quota != nil {
		qc := client
		if qc == "" {
			qc = "local"
		}
		if ok, retryAfter := s.quota.Take(qc, req.Cost()); !ok {
			s.reg.Counter(obs.MJobsShed).Add(1)
			s.reg.Counter(obs.MShedClient).Add(1)
			return nil, &ShedError{Reason: "client", RetryAfter: retryAfter}
		}
		s.reg.Gauge(obs.MQuotaClients).Set(int64(s.quota.Len()))
	}
	if ok, retryAfter := s.bucket.Take(); !ok {
		s.reg.Counter(obs.MJobsShed).Add(1)
		s.reg.Counter(obs.MShedRate).Add(1)
		return nil, &ShedError{Reason: "rate", RetryAfter: retryAfter}
	}
	id := newJobID()
	reqID := RequestIDFrom(ctx)
	if err := s.journal.Submit(id, reqID, client, req); err != nil {
		// Not durable — reject rather than risk losing an accepted job.
		if errors.Is(err, ErrJournalPaused) {
			// Another job's write tripped the breaker since the check
			// above: refuse exactly as a degraded server does.
			_, reason := s.breaker.state()
			if reason == "" {
				reason = "journal paused"
			}
			return nil, s.refuseDegraded(reason)
		}
		return nil, err
	}
	jobCtx, cancel := context.WithCancelCause(s.ctx)
	job := newJob(id, reqID, client, req, jobCtx, cancel)
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.queue <- job // cannot block: depth checked under s.mu
	s.reg.Counter(obs.MJobsSubmitted).Add(1)
	s.reg.Gauge(obs.MQueueDepth).Add(1)
	s.log.Info("job accepted", "job", id, "cells", req.cellCount(),
		"config", job.status.ConfigHash, "request_id", reqID, "client", client)
	return job, nil
}

// refuseDegraded counts a submission the journal cannot make durable and
// refuses it honestly, with the soonest the next probe could clear the
// breaker as its Retry-After.
func (s *Service) refuseDegraded(reason string) error {
	s.reg.Counter(obs.MJobsShed).Add(1)
	s.reg.Counter(obs.MShedDegraded).Add(1)
	return &DegradedError{Reason: reason, RetryAfter: s.cfg.ProbeInterval}
}

// estimateDrain guesses how long until a queue slot frees: queue depth
// over the observed job completion rate, clamped to [1s, 1m].
func (s *Service) estimateDrain() time.Duration {
	finished := s.reg.Counter(obs.MJobsDone).Value() +
		s.reg.Counter(obs.MJobsFailed).Value() +
		s.reg.Counter(obs.MJobsCanceled).Value()
	elapsed := time.Since(s.start)
	if finished == 0 || elapsed <= 0 {
		return 2 * time.Second
	}
	perJob := elapsed / time.Duration(finished)
	est := perJob * time.Duration(len(s.queue)) / time.Duration(max(1, s.cfg.JobWorkers))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Job returns the job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns how many jobs wait for a worker.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Registry exposes the metrics registry (healthz, debug server).
func (s *Service) Registry() *obs.Registry { return s.reg }

// Uptime reports time since Open.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// JournalErr surfaces journal health for readyz.
func (s *Service) JournalErr() error { return s.journal.Err() }

// runJob executes one job's grid on the runner pool.
func (s *Service) runJob(job *Job) {
	s.reg.Gauge(obs.MJobsRunning).Add(1)
	defer s.reg.Gauge(obs.MJobsRunning).Add(-1)
	if err := context.Cause(job.ctx()); err != nil {
		// Canceled while queued.
		s.finishJob(job, nil, nil, err)
		return
	}
	job.setState(StateRunning, "", "")
	if err := s.journal.Start(job.id); err != nil {
		s.log.Warn("journal start entry failed", "job", job.id, "err", err)
	}

	// The job's run record, which its ledger line projects, with a
	// per-job profile capture under Config.ProfileDir. Jobs that lose the
	// race for the process-global CPU profiler simply run unprofiled.
	run, err := obs.StartRun(job.id, s.cfg.ProfileDir)
	switch {
	case errors.Is(err, perfobs.ErrBusy):
		s.log.Debug("profile capture skipped, profiler busy", "job", job.id)
	case err != nil:
		s.log.Warn("profile capture failed to start", "job", job.id, "err", err)
	}

	ctx := job.ctx()
	timeout := s.cfg.DefaultJobTimeout
	if job.req.TimeoutMs > 0 {
		timeout = time.Duration(job.req.TimeoutMs) * time.Millisecond
	}
	if s.cfg.MaxJobTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxJobTimeout) {
		timeout = s.cfg.MaxJobTimeout
	}
	var cancelTimeout context.CancelFunc
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, timeout, ErrJobDeadline)
		defer cancelTimeout()
	}

	// One trace set per job: each (workload, scale) trace is generated
	// once, shared by the job's cells and dropped after the last of them
	// finishes (OnCellDone below), or with the job.
	specs := job.req.Cells()
	traces := newTraceSet(specs)
	cells := make([]runner.Cell[CellResult], len(specs))
	for i, cs := range specs {
		cells[i] = runner.Cell[CellResult]{Key: cs.Key(), Run: func(ctx context.Context) (CellResult, error) {
			return cs.simulate(ctx, traces)
		}}
	}
	cells = faultinject.Wrap(s.cfg.Faults, cells)

	regStart, regDone := obs.RunnerHooks(s.reg, s.log.With("job", job.id))
	s.reg.Counter(obs.MCellsPlanned).Add(int64(len(cells)))

	results := runner.Run(ctx, cells, runner.Options{
		Workers:     s.cfg.CellWorkers,
		CellTimeout: s.cfg.CellTimeout,
		Retries:     s.cfg.Retries,
		Backoff:     ExpBackoff(s.cfg.BackoffBase, s.cfg.BackoffMax),
		Checkpoint:  s.cells,
		OnCellStart: regStart,
		OnAttempt: func(runner.AttemptEvent) {
			s.reg.Counter(obs.MCellAttempts).Add(1)
		},
		OnCellDone: func(ev runner.CellEvent) {
			traces.release(specs[ev.Index])
			if regDone != nil {
				regDone(ev)
			}
			job.noteCell(ev)
		},
	})
	// Finish before finishJob so the run's wall time reaches the job's
	// ledger record.
	if sum, err := run.Finish(nil); err != nil {
		s.log.Warn("profile capture failed", "job", job.id, "err", err)
	} else if sum.Dir != "" {
		s.log.Info("profiles captured", "job", job.id, "dir", sum.Dir)
	}
	s.finishJob(job, run.Manifest, results, context.Cause(ctx))
}

// ResultsFor returns a done job's cell results. For jobs restored from the
// journal after a restart the in-memory results are gone; they are rebuilt
// on first request from the memoized cell cache (cells missing from the
// cache — lost to a crash between the cell write and the journal's done
// entry — are recomputed in place, which is safe because cells are
// deterministic). Returns nil for non-terminal or failed jobs.
func (s *Service) ResultsFor(ctx context.Context, job *Job) ([]CellResult, error) {
	if job.Status().State != StateDone {
		return nil, nil
	}
	if rs := job.Results(); rs != nil {
		return rs, nil
	}
	req := job.Request()
	specs := req.Cells()
	out := make([]CellResult, len(specs))
	traces := newTraceSet(specs)
	for i, cs := range specs {
		raw, ok := s.cells.Lookup(cs.Key())
		if !ok || json.Unmarshal(raw, &out[i]) != nil {
			r, err := cs.simulate(ctx, traces)
			if err != nil {
				return nil, fmt.Errorf("service: rebuilding results for %s: %w", job.ID(), err)
			}
			out[i] = r
		}
		traces.release(cs)
	}
	job.setResults(out)
	return job.Results(), nil
}

// finishJob classifies the sweep outcome, journals the terminal state,
// then publishes it on the job (write ahead: a client that has seen a job
// end never reads a journal that still has it running), and appends a
// ledger record projected from the job's run manifest m. Jobs stopped by
// the server itself (drain abort, kill) stay non-terminal in the journal
// so the next start requeues them.
func (s *Service) finishJob(job *Job, m *obs.Manifest, results []runner.Result[CellResult], cause error) {
	vals, sweepErr := runner.Values(results)
	switch {
	case results != nil && sweepErr == nil:
		job.setResults(vals)
		// Count and journal before the terminal state becomes visible: a
		// client that polls the job to done and then scrapes /metrics or
		// reads the journal must see the counter bumped and the entry
		// written.
		s.reg.Counter(obs.MJobsDone).Add(1)
		if err := s.journal.Done(job.id); err != nil {
			s.log.Warn("journal done entry failed", "job", job.id, "err", err)
			s.parkUnjournaled(journalEntry{T: "done", Job: job.id})
		}
		job.setState(StateDone, "", "")
		s.appendLedger(job, m, results)
		s.log.Info("job done", "job", job.id, "cells", len(results))
		return
	case errors.Is(cause, ErrKilled) || errors.Is(cause, ErrDrainAborted):
		// Non-terminal: the job resumes in the next server life.
		job.setState(StateInterrupted, "", causeName(cause))
		s.log.Warn("job interrupted", "job", job.id, "cause", causeName(cause))
		return
	case errors.Is(cause, ErrClientCanceled):
		s.reg.Counter(obs.MJobsCanceled).Add(1)
		if err := s.journal.Cancel(job.id); err != nil {
			s.log.Warn("journal cancel entry failed", "job", job.id, "err", err)
			s.parkUnjournaled(journalEntry{T: "cancel", Job: job.id})
		}
		job.setState(StateCanceled, "", causeName(cause))
		return
	default:
		msg := "job failed"
		if sweepErr != nil {
			msg = sweepErr.Error()
		}
		s.reg.Counter(obs.MJobsFailed).Add(1)
		if err := s.journal.Fail(job.id, msg, causeName(cause)); err != nil {
			s.log.Warn("journal fail entry failed", "job", job.id, "err", err)
			s.parkUnjournaled(journalEntry{T: "fail", Job: job.id, Err: msg, Cause: causeName(cause)})
		}
		job.setState(StateFailed, msg, causeName(cause))
		s.log.Warn("job failed", "job", job.id, "err", msg, "cause", causeName(cause))
	}
}

// MetricsHandler serves the registry in Prometheus text format, syncing
// the scrape-time gauges (admission tokens, uptime) first. Mounted at
// /metrics by NewServer and reusable on a debug listener.
func (s *Service) MetricsHandler() http.Handler {
	return obs.MetricsHandler(s.reg, func() {
		s.reg.Gauge(obs.MTokensAvailable).Set(int64(s.bucket.Available()))
		s.reg.Gauge(obs.MUptimeSeconds).Set(int64(s.Uptime().Seconds()))
		obs.SyncRuntimeMetrics(s.reg)
	})
}

// appendLedger records a completed job in the cross-run ledger, so
// simreport sees service traffic alongside CLI runs. The job's status
// supplies the manifest's identity, timing and grid shape; the cycle totals
// come straight from its cells.
func (s *Service) appendLedger(job *Job, m *obs.Manifest, results []runner.Result[CellResult]) {
	st := job.Status()
	wall := st.Finished.Sub(st.Started)
	m.StartTime, m.ConfigHash, m.Outcome, m.WallMs = st.Submitted, st.ConfigHash, "ok", wall.Milliseconds()
	m.Cells = obs.ManifestCells{
		Planned:  int64(st.Cells.Planned),
		Done:     int64(st.Cells.Done),
		Replayed: int64(st.Cells.Replayed),
		Failed:   int64(st.Cells.Failed),
	}
	rec := ledger.FromManifest(m, "cachesimd")
	var refs, cycles int64
	for _, r := range results {
		if r.Done {
			refs += r.Value.Refs
			cycles += r.Value.Cycles
		}
	}
	rec.SetCycles(refs, cycles, wall)
	if _, err := ledger.Append(s.cfg.DataDir, rec); err != nil {
		s.log.Warn("ledger append failed", "job", job.id, "err", err)
	}
}

// Drain stops admitting, lets queued and running jobs finish, then flushes
// and closes the journal and cell cache. If ctx expires first, running
// jobs are aborted with ErrDrainAborted — they stay non-terminal in the
// journal and resume on the next start — and Drain reports the abort.
func (s *Service) Drain(ctx context.Context) error {
	s.probeOnce.Do(func() { close(s.stopProbe) })
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // under mu: Submit sends only under mu after the check
	}
	s.mu.Unlock()
	s.log.Info("draining", "queued", len(s.queue))
	aborted := false
	select {
	case <-s.drained:
	case <-ctx.Done():
		aborted = true
		s.mu.Lock()
		for _, job := range s.jobs {
			job.Cancel(ErrDrainAborted)
		}
		s.mu.Unlock()
		<-s.drained // cells observe the cause between phases; bounded work
	}
	var errs []error
	if err := s.cells.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := s.journal.Close(); err != nil {
		errs = append(errs, err)
	}
	if aborted {
		errs = append(errs, fmt.Errorf("service: drain deadline passed; in-flight jobs checkpointed for restart"))
	}
	return errors.Join(errs...)
}

// Kill is the tests' kill -9 stand-in: cancel everything with ErrKilled
// and close the files without flushing job state. Journaled-but-unfinished
// jobs will be requeued by the next Open, exactly as after a real crash.
func (s *Service) Kill() {
	s.probeOnce.Do(func() { close(s.stopProbe) })
	s.kill(ErrKilled)
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	// Closing invalidates the handles; late cell completions hit the
	// checkpoint's sticky error and are dropped, like writes after a
	// process death.
	s.cells.Close()   //nolint:errcheck // crash semantics
	s.journal.Close() //nolint:errcheck // crash semantics
	// A job that finished as the kill landed may still be writing its
	// ledger record under DataDir; return only once every job worker has
	// exited, so nothing of this life writes after Kill.
	s.wg.Wait()
}

// causeName canonicalizes a cancellation cause for statuses and journals.
func causeName(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrClientCanceled):
		return "client-cancel"
	case errors.Is(err, ErrJobDeadline), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrDrainAborted):
		return "drain"
	case errors.Is(err, ErrKilled):
		return "killed"
	default:
		return err.Error()
	}
}

// ExpBackoff returns an exponential-backoff-with-full-jitter schedule:
// attempt n waits a uniformly random duration in [d/2, d] where d =
// base·2^(n-1) capped at max. Jitter decorrelates the retry storms of
// cells that failed together (a transient fault plan, a brief resource
// spike).
func ExpBackoff(base, max time.Duration) func(attempt int) time.Duration {
	return func(attempt int) time.Duration {
		d := base
		for i := 1; i < attempt && d < max; i++ {
			d *= 2
		}
		if d > max || d <= 0 {
			d = max
		}
		half := d / 2
		if half <= 0 {
			return d
		}
		return half + rand.N(half+1)
	}
}
