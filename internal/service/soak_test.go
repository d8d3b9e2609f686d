package service

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ledger"
	"repro/internal/obs"
)

// soakSubmitAll pushes requests concurrently, retrying sheds and degraded
// refusals like a well-behaved client; returns the accepted job IDs.
func soakSubmitAll(t *testing.T, s *Service, batch []GridRequest) []string {
	t.Helper()
	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for _, req := range batch {
		wg.Add(1)
		go func(req GridRequest) {
			defer wg.Done()
			for {
				job, err := s.Submit(req)
				var shed *ShedError
				var degraded *DegradedError
				if errors.As(err, &shed) || errors.As(err, &degraded) {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				ids = append(ids, job.ID())
				mu.Unlock()
				return
			}
		}(req)
	}
	wg.Wait()
	return ids
}

// saveArtifactsOnFailure copies the service data dir (journal, cell cache,
// ledger, quarantine sidecars) to $SOAK_ARTIFACTS_DIR when the test
// fails, so CI uploads the evidence instead of discarding the TempDir.
func saveArtifactsOnFailure(t *testing.T, dir string) {
	t.Cleanup(func() {
		dest := os.Getenv("SOAK_ARTIFACTS_DIR")
		if !t.Failed() || dest == "" {
			return
		}
		dest = filepath.Join(dest, strings.ReplaceAll(t.Name(), "/", "_"))
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, rerr := filepath.Rel(dir, path)
			if rerr != nil {
				return rerr
			}
			out := filepath.Join(dest, rel)
			if d.IsDir() {
				return os.MkdirAll(out, 0o755)
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			return os.WriteFile(out, data, 0o644)
		})
		if err != nil {
			t.Logf("saving soak artifacts to %s failed: %v", dest, err)
			return
		}
		t.Logf("soak artifacts saved to %s", dest)
	})
}

// TestChaosSoak is the service's resilience proof: many concurrent jobs
// through a deterministic fault plan (forced panics, slow cells, transient
// errors) with flaky journal writes underneath, a kill -9 stand-in mid-run
// followed by a restart on the same data dir, and a graceful drain at the
// end. Asserts the envelope the design promises:
//
//   - no accepted job is ever lost: every journaled submission reaches a
//     terminal state across the two server lives;
//   - every completed job's results are bit-identical to direct in-process
//     simulation of its cells;
//   - the final drain is clean.
//
// ~2×60 jobs over a shared pool of ~36 distinct cells, so memoization,
// retry and crash-recovery all fire against the same store.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode (run via `make soak`)")
	}
	dir := t.TempDir()
	newCfg := func() (Config, *[]*faultinject.FaultyWriter) {
		var fws []*faultinject.FaultyWriter
		cfg := Config{
			DataDir:     dir,
			JobWorkers:  4,
			CellWorkers: 4,
			MaxQueue:    300,
			SubmitRate:  1e6, // admission tested elsewhere; the soak wants throughput
			SubmitBurst: 1e6,
			Retries:     3,
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			Faults: &faultinject.Plan{
				Seed:           42,
				PanicRate:      0.05,
				SlowRate:       0.10,
				TransientRate:  0.25,
				SlowFor:        15 * time.Millisecond,
				TransientFails: 2,
			},
			JournalWrap: func(w io.Writer) io.Writer {
				fw := faultinject.NewFaultyWriter(w, 512, 2048, faultinject.ShortWrite)
				fws = append(fws, fw)
				return fw
			},
			Registry: obs.NewRegistry(),
		}
		return cfg, &fws
	}

	// A deterministic mix of 120 requests over a small shared cell pool.
	wls := []string{"mu3", "mu6", "savec", "rd1n3"}
	sizes := [][]int{{2}, {4}, {2, 4}, {8}, {4, 8}, nil}
	assocs := [][]int{nil, {1, 2}, {2}}
	reqs := make([]GridRequest, 120)
	for i := range reqs {
		reqs[i] = GridRequest{
			Workloads: []string{wls[i%len(wls)]},
			Scale:     0.01,
			SizesKB:   sizes[i%len(sizes)],
			Assocs:    assocs[i%len(assocs)],
		}
	}

	submitAll := func(s *Service, batch []GridRequest) []string {
		return soakSubmitAll(t, s, batch)
	}

	// Life 1: first half of the load, killed once some jobs have finished
	// but plenty are still queued or running.
	cfg1, fws1 := newCfg()
	s1, err := Open(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	accepted := submitAll(s1, reqs[:60])
	if len(accepted) != 60 {
		t.Fatalf("life 1 accepted %d/60 jobs", len(accepted))
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		terminal := 0
		for _, job := range s1.Jobs() {
			if job.Status().State.Terminal() {
				terminal++
			}
		}
		if terminal >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("life 1 stalled: only %d jobs terminal", terminal)
		}
		time.Sleep(time.Millisecond)
	}
	s1.Kill() // no drain, no flush: the crash case

	// Life 2: restart over the same data dir, second half of the load.
	cfg2, fws2 := newCfg()
	s2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("restart after kill: %v", err)
	}
	requeued := 0
	for _, id := range accepted {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across the crash", id)
		}
		if job.Status().State == StateQueued {
			requeued++
		}
	}
	if requeued == 0 {
		t.Error("kill landed after all jobs finished; crash recovery untested")
	}
	t.Logf("life 2: %d jobs requeued from the crash", requeued)
	s2.Start()
	accepted = append(accepted, submitAll(s2, reqs[60:])...)
	if len(accepted) != 120 {
		t.Fatalf("accepted %d/120 jobs", len(accepted))
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("final drain not clean: %v", err)
	}

	// No job lost: every accepted submission is terminal after the drain.
	counts := map[JobState]int{}
	var doneJobs []*Job
	for _, id := range accepted {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
			continue
		}
		st := job.Status()
		if !st.State.Terminal() {
			t.Errorf("job %s ended non-terminal: %+v", id, st)
			continue
		}
		counts[st.State]++
		if st.State == StateDone {
			doneJobs = append(doneJobs, job)
		}
	}
	t.Logf("outcomes: %+v", counts)
	if counts[StateDone] == 0 {
		t.Fatal("no job completed; soak is vacuous")
	}
	if counts[StateFailed] == 0 {
		t.Error("no job failed despite forced panics; fault plan not firing")
	}

	// The chaos actually happened.
	journalFaults := 0
	for _, fws := range []*[]*faultinject.FaultyWriter{fws1, fws2} {
		for _, fw := range *fws {
			journalFaults += fw.Faults
		}
	}
	if journalFaults == 0 {
		t.Error("journal fault injector never fired")
	}
	if cfg2.Registry.Counter(obs.MCellsRetried).Value() == 0 &&
		cfg1.Registry.Counter(obs.MCellsRetried).Value() == 0 {
		t.Error("no cell retries despite transient faults")
	}
	if cfg2.Registry.Counter(obs.MCellsReplayed).Value() == 0 {
		t.Error("no memoized replays despite overlapping grids and a restart")
	}

	// Bit-identical: completed jobs return exactly what direct simulation
	// of their cells produces. Distinct cells simulated once, uncorrupted.
	direct := map[string]CellResult{}
	for _, job := range doneJobs {
		req := job.Request()
		results, err := s2.ResultsFor(context.Background(), job)
		if err != nil {
			t.Fatalf("results for %s: %v", job.ID(), err)
		}
		byKey := map[string]CellResult{}
		for _, r := range results {
			byKey[r.Key] = r
		}
		for _, cs := range req.Cells() {
			want, ok := direct[cs.Key()]
			if !ok {
				w, err := cs.Simulate(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				direct[cs.Key()] = w
				want = w
			}
			if got := byKey[cs.Key()]; !reflect.DeepEqual(got, want) {
				t.Errorf("job %s cell %s diverges from direct run:\n got %+v\nwant %+v",
					job.ID(), cs.Key(), got, want)
			}
		}
	}
	t.Logf("verified %d done jobs over %d distinct cells", len(doneJobs), len(direct))
}

// TestChaosSoakDiskFaults is the lying-disk resilience proof: a first
// server life whose journal and cell-cache writes are silently corrupted
// (bit flips and torn tails reported as success), killed mid-run; the
// ledger rotted in place between lives; then a clean second life that must
// scan-quarantine-repair all three stores on open, lose zero accepted
// jobs, and produce results bit-identical to direct simulation.
func TestChaosSoakDiskFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode (run via `make soak`)")
	}
	dir := t.TempDir()
	saveArtifactsOnFailure(t, dir)

	wls := []string{"mu3", "mu6", "savec", "rd1n3"}
	sizes := [][]int{{2}, {4}, {2, 4}, {8}, {4, 8}, nil}
	reqs := make([]GridRequest, 60)
	for i := range reqs {
		reqs[i] = GridRequest{
			Workloads: []string{wls[i%len(wls)]},
			Scale:     0.01,
			SizesKB:   sizes[i%len(sizes)],
		}
	}

	baseCfg := func() Config {
		return Config{
			DataDir:     dir,
			JobWorkers:  4,
			CellWorkers: 4,
			MaxQueue:    300,
			SubmitRate:  1e6,
			SubmitBurst: 1e6,
			Retries:     3,
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			Faults: &faultinject.Plan{
				Seed:           7,
				SlowRate:       0.10,
				TransientRate:  0.20,
				SlowFor:        10 * time.Millisecond,
				TransientFails: 2,
			},
			Registry: obs.NewRegistry(),
		}
	}

	// Life 1: both persistence surfaces write through silently corrupting
	// disks. The journal's read-back verification recovers each damaged
	// append in place; the cell cache takes the damage (cells are
	// recomputable) for the next open's scan to quarantine.
	cfg1 := baseCfg()
	var jbf *faultinject.BitFlipWriter
	var cbf *faultinject.BitFlipWriter
	var ctw *faultinject.TruncateWriter
	cfg1.JournalWrap = func(w io.Writer) io.Writer {
		jbf = faultinject.NewBitFlipWriter(w, 7, 600, 2000)
		return jbf
	}
	cfg1.CellWrap = func(w io.Writer) io.Writer {
		cbf = faultinject.NewBitFlipWriter(w, 9, 900, 3000)
		ctw = faultinject.NewTruncateWriter(cbf, 1500, 5000)
		return ctw
	}
	s1, err := Open(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	accepted := soakSubmitAll(t, s1, reqs[:30])
	if len(accepted) != 30 {
		t.Fatalf("life 1 accepted %d/30 jobs", len(accepted))
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		terminal := 0
		for _, job := range s1.Jobs() {
			if job.Status().State.Terminal() {
				terminal++
			}
		}
		if terminal >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("life 1 stalled: only %d jobs terminal", terminal)
		}
		time.Sleep(time.Millisecond)
	}
	s1.Kill()
	if jbf.Faults == 0 || cbf.Faults+ctw.Faults == 0 {
		t.Fatalf("silent corruption never fired (journal=%d cells=%d+%d); soak is vacuous",
			jbf.Faults, cbf.Faults, ctw.Faults)
	}

	// Between lives a bad sector rots the ledger in place: flip one bit in
	// the first record's payload so its checksum no longer matches.
	lpath := ledger.Path(dir)
	raw, err := os.ReadFile(lpath)
	if err != nil || len(raw) < 32 {
		t.Fatalf("ledger unreadable between lives: err=%v len=%d", err, len(raw))
	}
	raw[20] ^= 0x40
	if err := os.WriteFile(lpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Life 2: clean disks. Opening must quarantine the damage in all three
	// stores and requeue the crash's in-flight jobs.
	cfg2 := baseCfg()
	s2, err := Open(cfg2)
	if err != nil {
		t.Fatalf("restart over corrupted stores: %v", err)
	}
	jq := cfg2.Registry.Counter(obs.MJournalQuarantined).Value()
	cq := cfg2.Registry.Counter(obs.MCellsQuarantined).Value()
	lq := cfg2.Registry.Counter(obs.MLedgerQuarantined).Value()
	t.Logf("quarantined on open: journal=%d cells=%d ledger=%d", jq, cq, lq)
	if jq == 0 {
		t.Error("no journal records quarantined despite bit-flipped writes")
	}
	if cq == 0 {
		t.Error("no cell records quarantined despite silent corruption")
	}
	if lq == 0 {
		t.Error("no ledger records quarantined despite the rotted record")
	}
	for _, id := range accepted {
		if _, ok := s2.Job(id); !ok {
			t.Fatalf("job %s lost to the lying disk", id)
		}
	}
	s2.Start()
	accepted = append(accepted, soakSubmitAll(t, s2, reqs[30:])...)
	if len(accepted) != 60 {
		t.Fatalf("accepted %d/60 jobs", len(accepted))
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("final drain not clean: %v", err)
	}

	// Zero lost jobs, and every completed job bit-identical to direct
	// simulation — quarantined cells recompute, they do not poison.
	done := 0
	direct := map[string]CellResult{}
	for _, id := range accepted {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st := job.Status()
		if !st.State.Terminal() {
			t.Errorf("job %s ended non-terminal: %+v", id, st)
			continue
		}
		if st.State != StateDone {
			continue
		}
		done++
		results, err := s2.ResultsFor(context.Background(), job)
		if err != nil {
			t.Fatalf("results for %s: %v", id, err)
		}
		byKey := map[string]CellResult{}
		for _, r := range results {
			byKey[r.Key] = r
		}
		req := job.Request()
		for _, cs := range req.Cells() {
			want, ok := direct[cs.Key()]
			if !ok {
				w, err := cs.Simulate(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				direct[cs.Key()] = w
				want = w
			}
			if got := byKey[cs.Key()]; !reflect.DeepEqual(got, want) {
				t.Errorf("job %s cell %s diverges from direct run:\n got %+v\nwant %+v",
					id, cs.Key(), got, want)
			}
		}
	}
	if done == 0 {
		t.Fatal("no job completed; soak is vacuous")
	}
	t.Logf("verified %d done jobs over %d distinct cells", done, len(direct))
}
