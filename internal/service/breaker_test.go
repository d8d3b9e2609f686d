package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

func TestBreakerTripOnceAndProbeReset(t *testing.T) {
	b := NewBreaker(3)
	boom := errors.New("disk on fire")
	if b.observe(boom) || b.observe(boom) {
		t.Fatal("tripped below threshold")
	}
	b.observe(nil) // success resets the consecutive count
	if b.observe(boom) || b.observe(boom) {
		t.Fatal("tripped without 3 consecutive failures")
	}
	if !b.observe(boom) {
		t.Fatal("third consecutive failure did not trip")
	}
	if open, reason := b.state(); !open || reason != "disk on fire" {
		t.Fatalf("state after trip: open=%v reason=%q", open, reason)
	}
	if b.observe(boom) {
		t.Error("second trip reported for the same open")
	}
	// A lucky success must not close an open breaker — readiness flaps on
	// probe cadence, not on individual writes.
	b.observe(nil)
	if open, _ := b.state(); !open {
		t.Error("a single success closed the breaker")
	}
	b.reset()
	if open, _ := b.state(); open {
		t.Error("reset did not close the breaker")
	}
	// After reset the threshold counts from zero again.
	b.observe(boom)
	b.observe(boom)
	if open, _ := b.state(); open {
		t.Error("breaker re-opened below threshold after reset")
	}
}

// errDiskGone is the gateWriter's injected failure.
var errDiskGone = errors.New("test: disk gone")

// gateWriter fails every write while the gate is closed. Unlike
// faultinject.FaultyWriter it is safe to flip from the test goroutine while
// the service writes concurrently, which is exactly what the degraded-mode
// recovery test does.
type gateWriter struct {
	w    io.Writer
	fail atomic.Bool
}

func (g *gateWriter) Write(p []byte) (int, error) {
	if g.fail.Load() {
		return 0, errDiskGone
	}
	return g.w.Write(p)
}

// TestStorageBreakerDegradedMode is the breaker's end-to-end proof: a dying
// journal disk trips the service into degraded mode (503 submissions with
// Retry-After, /readyz says why), in-flight jobs still complete, and once
// the disk heals a probe cycle restores readiness and re-journals the
// terminal states parked while degraded — so a later restart does not
// requeue finished jobs.
func TestStorageBreakerDegradedMode(t *testing.T) {
	dir := t.TempDir()
	gw := &gateWriter{}
	cfg := testConfig(dir)
	cfg.CellWorkers = 1
	cfg.BreakerThreshold = 3
	cfg.ProbeInterval = 20 * time.Millisecond
	// Hold every cell at a gate so the long job is still running when the
	// disk dies, and none of its cells writes the cell cache (a success
	// would reset the breaker's consecutive count) until the breaker has
	// tripped.
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	defer release()
	cfg.Faults = &faultinject.Plan{SlowRate: 1, SlowUntil: gate}
	cfg.JournalWrap = func(w io.Writer) io.Writer {
		gw.w = w
		return gw
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	slow, err := s.Submit(GridRequest{
		Workloads: []string{"mu3"}, Scale: 0.01, SizesKB: []int{1, 2, 4, 8, 16, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Once a cell is in flight the job has written its journal start
	// entry, so from here on the submissions below are the only storage
	// writes until the breaker trips.
	inflight := s.Registry().Gauge(obs.MCellsInflight)
	for deadline := time.Now().Add(30 * time.Second); inflight.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the slow job never started a cell")
		}
		time.Sleep(time.Millisecond)
	}

	// The disk dies. Failed submissions are honest journal errors until
	// the threshold trips the breaker; from then on they are DegradedError
	// without touching the disk.
	gw.fail.Store(true)
	var degraded *DegradedError
	plainFailures := 0
	for i := 0; i < 10; i++ {
		_, err := s.Submit(smallGrid())
		if err == nil {
			t.Fatal("submit succeeded on a dead disk")
		}
		if errors.As(err, &degraded) {
			break
		}
		if !errors.Is(err, errDiskGone) {
			t.Fatalf("pre-trip submit error: %v", err)
		}
		plainFailures++
	}
	if degraded == nil {
		t.Fatalf("breaker never tripped after %d failed submissions", plainFailures)
	}
	if plainFailures != cfg.BreakerThreshold {
		t.Errorf("tripped after %d plain failures, want %d", plainFailures, cfg.BreakerThreshold)
	}
	if degraded.RetryAfter != cfg.ProbeInterval {
		t.Errorf("RetryAfter = %v, want the probe interval %v", degraded.RetryAfter, cfg.ProbeInterval)
	}
	if open, reason := s.Degraded(); !open || reason == "" {
		t.Fatalf("Degraded() = %v, %q after trip", open, reason)
	}

	// The HTTP surface tells the truth: submissions 503 with Retry-After,
	// readiness 503 with the reason.
	resp, _ := postJob(t, ts, smallGrid())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded submit status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("degraded submit Retry-After = %q", ra)
	}
	var ready map[string]any
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Errorf("degraded readyz status %d, want 503", code)
	}
	if reason, _ := ready["reason"].(string); !strings.HasPrefix(reason, "degraded: ") {
		t.Errorf("degraded readyz reason = %q", ready["reason"])
	}

	// Degraded is not down: the in-flight job keeps computing and lands
	// done, its journal entry parked for recovery.
	release()
	if st := waitTerminal(t, slow, 30*time.Second); st.State != StateDone {
		t.Fatalf("in-flight job ended %s (%s) while degraded", st.State, st.Error)
	}

	// The disk heals; the next probe cycle clears degraded mode.
	gw.fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if open, _ := s.Degraded(); !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the disk healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz after recovery: %d", code)
	}
	after, err := s.Submit(smallGrid())
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	waitTerminal(t, after, 30*time.Second)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}

	// The parked done entry was re-journaled: a restart restores the slow
	// job as done instead of requeueing it.
	s2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	restored, ok := s2.Job(slow.ID())
	if !ok {
		t.Fatal("slow job lost across restart")
	}
	if st := restored.Status(); st.State != StateDone {
		t.Errorf("job finished while degraded restored as %s, want done (parked entry lost)", st.State)
	}
}

// TestSubmitOnPausedJournalIsDegraded covers the window between
// SubmitCtx's breaker check and its journal append: another job's write
// can trip the breaker there, and the append then meets a paused journal.
// The submission must be refused as degraded (503 with Retry-After,
// counted as shed_degraded), not fail with a bare journal error.
func TestSubmitOnPausedJournalIsDegraded(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.ProbeInterval = 3 * time.Second
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	// Pause the journal behind a closed breaker: the breaker check passes
	// and the append is the first to notice.
	s.journal.SetPaused(true)
	_, err = s.Submit(smallGrid())
	var degraded *DegradedError
	if !errors.As(err, &degraded) {
		t.Fatalf("submit on a paused journal: %v, want *DegradedError", err)
	}
	if degraded.RetryAfter != cfg.ProbeInterval {
		t.Errorf("RetryAfter = %v, want the probe interval %v", degraded.RetryAfter, cfg.ProbeInterval)
	}
	resp, _ := postJob(t, ts, smallGrid())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("HTTP submit on a paused journal: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want 3", ra)
	}
	if n := s.Registry().Counter(obs.MShedDegraded).Value(); n != 2 {
		t.Errorf("shed_degraded = %d, want 2", n)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("%d jobs accepted on a paused journal", n)
	}
}

// TestKillClosedJournalNotDiskEvidence: a job that finishes as Kill lands
// appends to the journal Kill closed. That append is dropped, like a
// write after a process death, and says nothing about the disk: even at
// BreakerThreshold 1 the breaker must not trip.
func TestKillClosedJournalNotDiskEvidence(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.BreakerThreshold = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()
	if err := s.journal.Done("late-job"); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("append after Kill: %v, want ErrJournalClosed", err)
	}
	if trips := s.Registry().Counter(obs.MBreakerTrips).Value(); trips != 0 {
		t.Errorf("breaker_trips = %d after an append to the closed journal, want 0", trips)
	}
	if open, reason := s.Degraded(); open {
		t.Errorf("Degraded() = true (%s) after an append to the closed journal", reason)
	}
}
