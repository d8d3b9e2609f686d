package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// JournalName is the job journal file inside the service data directory.
const JournalName = "journal.ndjson"

// CellCacheName is the shared memoized-cell checkpoint file inside the
// data directory.
const CellCacheName = "cells.ndjson"

// ErrJournalPaused reports an append rejected because the journal is
// paused — the storage circuit breaker has tripped and the service is in
// degraded mode.
var ErrJournalPaused = errors.New("service: journal paused (degraded mode)")

// journalEntry is one write-ahead record of the job lifecycle. "submit"
// carries the request; "start" marks a worker picking the job up; "done",
// "fail" and "cancel" are terminal; "probe" is a breaker recovery probe,
// carrying no job state and skipped on replay. A job whose last entry is
// non-terminal was in flight when the process died and is requeued on the
// next start.
type journalEntry struct {
	T    string       `json:"t"`
	Job  string       `json:"job"`
	Time time.Time    `json:"time"`
	Req  *GridRequest `json:"req,omitempty"`
	// ReqID is the submitting request's X-Request-ID, carried on submit
	// entries so a restored job keeps its request ID.
	ReqID string `json:"req_id,omitempty"`
	// Client is the submitting client's identity (X-Client-ID or remote
	// host), carried on submit entries so quotas survive a restart's
	// requeue honestly attributed.
	Client string `json:"client,omitempty"`
	Err    string `json:"err,omitempty"`
	// Cause preserves why a terminal failure happened ("deadline",
	// "client-cancel"), so a restarted server restores honest statuses.
	Cause string `json:"cause,omitempty"`
}

// Journal is the crash-safe write-ahead job log: one checksummed
// (CRC32C-framed) JSON line per lifecycle event, appended with a single
// write call and fsynced, so a kill -9 loses at most the entry being
// written. Every acknowledged append is also read back and compared
// against the file — the only defense against a *silently* corrupting
// disk, which reports success while flipping bits or dropping tails. A
// write that fails outright or fails read-back is recovered in place:
// terminate the torn fragment with a newline fence, rewrite the record.
// Damaged fragments therefore sit mid-file until the next open's
// scan-quarantine-repair pass moves them to the `*.quarantine` sidecar.
type Journal struct {
	path string

	mu     sync.Mutex
	f      *os.File
	w      io.Writer
	err    error // first unrecovered failure; the journal is sick after it
	paused bool  // degraded mode: reject appends without touching the disk

	// onResult, when set, observes every append outcome (nil = durable).
	// The storage circuit breaker listens here. Called without the lock.
	onResult func(error)

	// appendT/fsyncT, when set, time every append and its fsync component.
	// Journal latency is the floor under submit latency, so it gets its
	// own series rather than hiding inside HTTP timings.
	appendT, fsyncT *obs.Timing
}

// SetMetrics attaches append and fsync latency timings. Call before
// serving traffic; nil disables either.
func (j *Journal) SetMetrics(appendT, fsyncT *obs.Timing) {
	j.mu.Lock()
	j.appendT, j.fsyncT = appendT, fsyncT
	j.mu.Unlock()
}

// SetOnResult registers an observer for append outcomes (nil error =
// durable). The storage circuit breaker listens here.
func (j *Journal) SetOnResult(fn func(error)) {
	j.mu.Lock()
	j.onResult = fn
	j.mu.Unlock()
}

// OpenJournal opens (creating if needed) the journal at path. The
// descriptor is read-write: appends go through it in O_APPEND mode while
// read-back verification ReadAts the bytes just written. wrap, when
// non-nil, interposes on the file writer — the fault-injection hook the
// chaos soak uses to make journal writes flaky or silently corrupting.
func OpenJournal(path string, wrap func(io.Writer) io.Writer) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: opening journal %s: %w", path, err)
	}
	j := &Journal{path: path, f: f, w: f}
	if wrap != nil {
		j.w = wrap(f)
	}
	return j, nil
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Err returns the first unrecovered append failure, nil while healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ClearErr forgets the sticky failure — the breaker's recovery path after
// a probe succeeds.
func (j *Journal) ClearErr() {
	j.mu.Lock()
	j.err = nil
	j.mu.Unlock()
}

// SetPaused toggles degraded mode: while paused, appends fail immediately
// with ErrJournalPaused instead of touching the sick disk.
func (j *Journal) SetPaused(on bool) {
	j.mu.Lock()
	j.paused = on
	j.mu.Unlock()
}

// Probe appends one probe entry through the full durable path (write,
// fsync, read-back), bypassing the pause, and reports whether the journal
// can persist again. Probe entries are skipped on replay.
func (j *Journal) Probe() error {
	return j.appendOpts(journalEntry{T: "probe"}, true)
}

// append writes one entry durably. A failed, short or
// read-back-mismatched write is retried: each retry first writes a lone
// newline to terminate any torn fragment (the scan quarantines the
// resulting garbage line), then rewrites the whole record. After the
// retries are exhausted the journal is marked sick and the error returned
// — callers must not consider the event durable.
func (j *Journal) append(e journalEntry) error {
	return j.appendOpts(e, false)
}

func (j *Journal) appendOpts(e journalEntry, probe bool) error {
	e.Time = time.Now().UTC()
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: encoding journal entry for %s: %w", e.Job, err)
	}
	line := durable.Frame(payload)
	j.mu.Lock()
	err = j.appendLocked(e, line, probe)
	onResult := j.onResult
	j.mu.Unlock()
	if onResult != nil && !probe {
		onResult(err)
	}
	return err
}

func (j *Journal) appendLocked(e journalEntry, line []byte, probe bool) error {
	if j.f == nil {
		return fmt.Errorf("service: journal %s is closed", j.path)
	}
	if j.paused && !probe {
		return ErrJournalPaused
	}
	if j.appendT != nil {
		start := time.Now()
		defer func() { j.appendT.Observe(time.Since(start)) }()
	}
	const attempts = 3
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Terminate whatever fragment the failed write left; if even
			// this fails — or is itself corrupted — the read-back's
			// preceding-newline check catches it and we fence again.
			j.w.Write([]byte("\n")) //nolint:errcheck // best-effort fence
		}
		st, serr := j.f.Stat()
		if serr != nil {
			lastErr = serr
			continue
		}
		off := st.Size()
		n, werr := j.w.Write(line)
		if werr != nil || n != len(line) {
			if werr == nil {
				werr = io.ErrShortWrite
			}
			lastErr = werr
			continue
		}
		syncStart := time.Now()
		serr = j.f.Sync()
		if j.fsyncT != nil {
			j.fsyncT.Observe(time.Since(syncStart))
		}
		if serr != nil {
			lastErr = serr
			continue
		}
		if verr := j.verify(line, off); verr != nil {
			lastErr = verr
			continue
		}
		return nil
	}
	err := fmt.Errorf("service: journal %s: appending %s/%s: %w", j.path, e.Job, e.T, lastErr)
	if j.err == nil && !probe {
		j.err = err
	}
	return err
}

// verify reads the just-written record back from disk and compares it
// byte for byte, additionally requiring the byte before it to be a
// newline (or the record to start the file) so a corrupted fence cannot
// merge it into a preceding garbage line. This is what turns "the disk
// said OK" into "the bytes are really there".
func (j *Journal) verify(line []byte, off int64) error {
	buf := make([]byte, len(line))
	if _, err := j.f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("read-back at %d: %w", off, err)
	}
	if string(buf) != string(line) {
		return fmt.Errorf("read-back at %d: bytes differ from what was written", off)
	}
	if off > 0 {
		var prev [1]byte
		if _, err := j.f.ReadAt(prev[:], off-1); err != nil {
			return fmt.Errorf("read-back at %d: %w", off-1, err)
		}
		if prev[0] != '\n' {
			return fmt.Errorf("read-back at %d: record not newline-delimited", off)
		}
	}
	return nil
}

// Submit journals a job acceptance (write-ahead: callers enqueue only
// after this returns nil). reqID is the submitting request's
// X-Request-ID and client its quota identity; "" for non-HTTP
// submissions.
func (j *Journal) Submit(id, reqID, client string, req GridRequest) error {
	return j.append(journalEntry{T: "submit", Job: id, ReqID: reqID, Client: client, Req: &req})
}

// Start journals a worker picking the job up.
func (j *Journal) Start(id string) error {
	return j.append(journalEntry{T: "start", Job: id})
}

// Done journals successful completion.
func (j *Journal) Done(id string) error {
	return j.append(journalEntry{T: "done", Job: id})
}

// Fail journals terminal failure.
func (j *Journal) Fail(id, errMsg, cause string) error {
	return j.append(journalEntry{T: "fail", Job: id, Err: errMsg, Cause: cause})
}

// Cancel journals client cancellation.
func (j *Journal) Cancel(id string) error {
	return j.append(journalEntry{T: "cancel", Job: id})
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if syncErr != nil {
		return fmt.Errorf("service: syncing journal %s: %w", j.path, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("service: closing journal %s: %w", j.path, closeErr)
	}
	return nil
}

// JournalJob is one job's folded journal history.
type JournalJob struct {
	ID     string
	ReqID  string // X-Request-ID from the submit entry
	Client string // quota identity from the submit entry
	Req    GridRequest
	State  JobState // StateQueued/StateRunning for in-flight, terminal otherwise
	Err    string
	Cause  string
	// Submitted is the submit entry's timestamp.
	Submitted time.Time
}

// ReplayStats reports what replaying the journal saw besides the jobs.
type ReplayStats struct {
	// Scan is the underlying checksum scan: legacy records read
	// compatibly, corrupt/torn/over-long lines quarantined to the sidecar,
	// whether the file was rewritten clean.
	Scan durable.Stats
	// Orphans counts parseable events for jobs whose submit entry was
	// lost before it was acknowledged: nothing was promised, so they are
	// skipped.
	Orphans int
}

// ReplayJournal folds the journal into per-job records, in submission
// order, running the scan-quarantine-repair pass first: corrupt lines —
// the expected debris of crash-interrupted or fault-recovered appends,
// plus anything a bad disk rotted in place — are moved to the
// `*.quarantine` sidecar and counted, never silent data loss, because
// every acknowledged event was read back intact when it was written.
// Legacy (pre-checksum) journals replay compatibly and are upgraded to
// framed records whenever a repair rewrite happens.
func ReplayJournal(path string) (jobs []JournalJob, stats ReplayStats, err error) {
	recs, scan, err := durable.ScanFile(path, durable.Options{
		Repair: true,
		Validate: func(p []byte) error {
			var e journalEntry
			if err := json.Unmarshal(p, &e); err != nil {
				return err
			}
			if e.T == "" {
				return fmt.Errorf("entry without type")
			}
			if e.T != "probe" && e.Job == "" {
				return fmt.Errorf("entry without job id")
			}
			return nil
		},
	})
	stats.Scan = scan
	if err != nil {
		return nil, stats, fmt.Errorf("service: reading journal %s: %w", path, err)
	}
	byID := make(map[string]*JournalJob)
	var order []string
	for _, r := range recs {
		var e journalEntry
		if uerr := json.Unmarshal(r.Payload, &e); uerr != nil || e.T == "" || (e.T != "probe" && e.Job == "") {
			// Validate accepted it; unreachable, but never fatal.
			stats.Orphans++
			continue
		}
		if e.T == "probe" {
			continue
		}
		jj, ok := byID[e.Job]
		if !ok {
			if e.T != "submit" || e.Req == nil {
				// An orphan event for a job whose submit entry was lost to
				// a torn write before it was acknowledged: nothing was
				// promised, skip it.
				stats.Orphans++
				continue
			}
			jj = &JournalJob{ID: e.Job, ReqID: e.ReqID, Client: e.Client, Req: *e.Req, State: StateQueued, Submitted: e.Time}
			byID[e.Job] = jj
			order = append(order, e.Job)
			continue
		}
		switch e.T {
		case "submit":
			// A duplicate submit (degraded-mode recovery re-appending, or a
			// retried write surviving twice) must not reset a terminal
			// state: first submit wins, later ones are ignored.
		case "start":
			if !jj.State.Terminal() {
				jj.State = StateRunning
			}
		case "done":
			jj.State = StateDone
		case "fail":
			jj.State = StateFailed
			jj.Err, jj.Cause = e.Err, e.Cause
		case "cancel":
			jj.State = StateCanceled
		}
	}
	for _, id := range order {
		jobs = append(jobs, *byID[id])
	}
	return jobs, stats, nil
}
