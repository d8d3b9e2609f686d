package service

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// crashLives is how many server lives a crash-consistency run kills; one
// more, on a clean disk, runs every job to the end.
const crashLives = 4

// breakerSnap is the storage breaker as a client can see it: whether it
// is open, and how many times it has tripped in this life.
type breakerSnap struct {
	open  bool
	trips int64
}

func snapBreaker(s *Service) breakerSnap {
	trips := s.Registry().Counter(obs.MBreakerTrips).Value()
	open, _ := s.Degraded()
	return breakerSnap{open: open, trips: trips}
}

// closedThroughout reports whether the breaker stayed closed from a to b:
// it was closed at both ends and did not trip in between.
func closedThroughout(a, b breakerSnap) bool {
	return !a.open && !b.open && a.trips == b.trips
}

// flakyDisk is the faulted run's journal disk. Healthy, it tears or flips
// the odd write (faultinject's TruncateWriter over its BitFlipWriter),
// which the journal's read-back repairs in place. During a sick spell it
// flips a bit in every write, so appends fail outright and trip the
// breaker until a probe lands after the spell. The spell flag is atomic
// because the test flips it while the service writes.
type flakyDisk struct {
	torn    *faultinject.TruncateWriter
	flipped *faultinject.BitFlipWriter
	sick    *faultinject.BitFlipWriter
	spell   atomic.Bool
}

func newFlakyDisk(w io.Writer, seed uint64, failAt int64) *flakyDisk {
	d := &flakyDisk{
		flipped: faultinject.NewBitFlipWriter(w, seed, failAt, 900),
		sick:    faultinject.NewBitFlipWriter(w, seed, 0, 1),
	}
	d.torn = faultinject.NewTruncateWriter(d.flipped, failAt+450, 1300)
	return d
}

func (d *flakyDisk) Write(p []byte) (int, error) {
	if d.spell.Load() {
		return d.sick.Write(p)
	}
	return d.torn.Write(p)
}

// crashBatch is a seeded batch of small grids over a shared cell pool, so
// later jobs are served partly from the memo that earlier lives wrote.
func crashBatch(rng *rand.Rand, n int) []GridRequest {
	wls := []string{"mu3", "savec", "rd1n3"}
	sizes := [][]int{{2}, {4}, {2, 4}, {8}, {4, 8}}
	batch := make([]GridRequest, n)
	for i := range batch {
		batch[i] = GridRequest{
			Workloads: []string{wls[rng.IntN(len(wls))]},
			Scale:     0.01,
			SizesKB:   sizes[rng.IntN(len(sizes))],
		}
	}
	return batch
}

// TestCrashConsistency is the journal's crash-consistency property. A
// seeded batch of jobs is submitted across several server lives, each
// ended by Service.Kill (the kill -9 stand-in) at a seeded point: after a
// seeded number of finished cells, while later submissions and earlier
// jobs are still in flight. Each job that a client saw in a terminal
// state must replay in that same state in every later life, and a final
// life on a clean disk must run every job to done, with results equal to
// CellSpec.Simulate.
//
// The faulted variant writes the journal through torn-write and bit-flip
// writers, with a seeded sick spell per life (see flakyDisk). An append
// that fails despite its retries trips the breaker (threshold 1) and parks
// the job's terminal entry in memory, so a kill in degraded mode forgets
// it by design; the property is asserted only for jobs that finished
// while the breaker stayed closed.
func TestCrashConsistency(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faulty bool
	}{{"clean", false}, {"torn-and-flipped", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				crashConsistency(t, seed, tc.faulty)
			}
		})
	}
}

func crashConsistency(t *testing.T, seed uint64, faulty bool) {
	dir := t.TempDir()
	saveArtifactsOnFailure(t, dir)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	batch := crashBatch(rng, 24)
	config := func() Config {
		return Config{
			DataDir:          dir,
			JobWorkers:       2,
			CellWorkers:      2,
			MaxQueue:         len(batch),
			SubmitRate:       1e6,
			SubmitBurst:      1e6,
			BackoffBase:      time.Millisecond,
			BackoffMax:       4 * time.Millisecond,
			BreakerThreshold: 1,
			ProbeInterval:    5 * time.Millisecond,
			Registry:         obs.NewRegistry(),
		}
	}

	// seen holds the terminal state a client saw for each job whose
	// terminal entry must be durable; accepted is every job ever admitted.
	seen := map[string]JobState{}
	var accepted []string
	next := 0 // batch index of the next submission
	var damaged, checks int
	var trips int64

	// replayed checks a freshly opened life against every earlier one and
	// records the terminal states it restored: those came from the
	// journal, so they must replay again.
	replayed := func(s *Service, life int) {
		t.Helper()
		for _, id := range accepted {
			job, ok := s.Job(id)
			if !ok {
				t.Fatalf("seed %d life %d: accepted job %s lost", seed, life, id)
			}
			got := job.Status().State
			if want, ok := seen[id]; ok {
				checks++
				if got != want {
					t.Errorf("seed %d life %d: job %s replays %s, a client saw it %s", seed, life, id, got, want)
				}
			}
			if got.Terminal() {
				seen[id] = got
			}
		}
	}

	for life := 0; life < crashLives; life++ {
		cfg := config()
		var disk *flakyDisk
		if faulty {
			failAt := int64(200 + rng.IntN(800))
			cfg.JournalWrap = func(w io.Writer) io.Writer {
				disk = newFlakyDisk(w, seed<<8|uint64(life), failAt)
				return disk
			}
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("seed %d life %d: open: %v", seed, life, err)
		}
		replayed(s, life)

		// pending maps each job not yet seen terminal to the breaker as
		// it was just before the job was last seen running.
		pending := map[string]breakerSnap{}
		before := snapBreaker(s)
		for _, id := range accepted {
			if _, done := seen[id]; !done {
				pending[id] = before
			}
		}
		s.Start()

		// The kill lands after a seeded number of finished cells; every
		// life submits a seeded share of the batch one job per poll, so
		// submissions interleave with the kill too.
		killAt := int64(rng.IntN(12))
		share := next + 2 + rng.IntN(len(batch)/crashLives)
		spellFrom := rng.IntN(8)
		spellTo := spellFrom + 1 + rng.IntN(10)
		deadline := time.Now().Add(30 * time.Second)
		for poll := 0; ; poll++ {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d life %d: no kill point within 30s", seed, life)
			}
			if disk != nil {
				disk.spell.Store(poll >= spellFrom && poll < spellTo)
			}
			if next < min(share, len(batch)) {
				before := snapBreaker(s)
				job, err := s.Submit(batch[next])
				var degraded *DegradedError
				switch {
				case err == nil:
					accepted = append(accepted, job.ID())
					pending[job.ID()] = before
					next++
				case errors.As(err, &degraded) || s.JournalErr() != nil:
					// The disk refused the submission (a client gets a
					// 503); retry on a later poll, once a probe heals it.
				default:
					t.Fatalf("seed %d life %d: submit: %v", seed, life, err)
				}
			}
			before := snapBreaker(s)
			var ended []string
			for id := range pending {
				job, _ := s.Job(id)
				if job.Status().State.Terminal() {
					ended = append(ended, id)
				}
			}
			after := snapBreaker(s)
			for _, id := range ended {
				job, _ := s.Job(id)
				if closedThroughout(pending[id], after) {
					seen[id] = job.Status().State
				}
				delete(pending, id)
			}
			for id := range pending {
				pending[id] = before
			}
			if cfg.Registry.Counter(obs.MCellsDone).Value() >= killAt ||
				(len(pending) == 0 && next >= min(share, len(batch))) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		s.Kill()
		trips += cfg.Registry.Counter(obs.MBreakerTrips).Value()
		if disk != nil {
			damaged += disk.torn.Faults + disk.flipped.Faults + disk.sick.Faults
		}
	}

	// The last life: a clean disk, every job to the end.
	cfg := config()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("seed %d final life: open: %v", seed, err)
	}
	replayed(s, crashLives)
	s.Start()
	for ; next < len(batch); next++ {
		job, err := s.Submit(batch[next])
		if err != nil {
			t.Fatalf("seed %d final life: submit: %v", seed, err)
		}
		accepted = append(accepted, job.ID())
	}
	direct := map[string]CellResult{}
	for _, id := range accepted {
		job, _ := s.Job(id)
		if st := waitTerminal(t, job, 30*time.Second); st.State != StateDone {
			t.Errorf("seed %d: job %s ended %s (%s)", seed, id, st.State, st.Error)
			continue
		}
		results, err := s.ResultsFor(context.Background(), job)
		if err != nil {
			t.Fatalf("seed %d: results for %s: %v", seed, id, err)
		}
		req := job.Request()
		for _, cs := range req.Cells() {
			want, ok := direct[cs.Key()]
			if !ok {
				if want, err = cs.Simulate(context.Background()); err != nil {
					t.Fatal(err)
				}
				direct[cs.Key()] = want
			}
			if !reflect.DeepEqual(resultFor(results, cs.Key()), want) {
				t.Errorf("seed %d: job %s cell %s differs from CellSpec.Simulate", seed, id, cs.Key())
			}
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("seed %d: drain: %v", seed, err)
	}

	// A clean shutdown leaves every job done in the journal.
	audit, err := Open(config())
	if err != nil {
		t.Fatalf("seed %d: audit open: %v", seed, err)
	}
	defer audit.Kill()
	replayed(audit, crashLives+1)
	for _, id := range accepted {
		if job, _ := audit.Job(id); job.Status().State != StateDone {
			t.Errorf("seed %d: job %s replays %s after a clean drain", seed, id, job.Status().State)
		}
	}
	if faulty && damaged == 0 {
		t.Fatalf("seed %d: no journal write was damaged; the faulted run is vacuous", seed)
	}
	if !faulty && trips != 0 {
		t.Errorf("seed %d: the breaker tripped %d times on a clean disk", seed, trips)
	}
	t.Logf("seed %d: %d jobs, %d replayed terminal states checked; %d journal writes damaged; %d breaker trips",
		seed, len(accepted), checks, damaged, trips)
}

// resultFor picks the result for key out of a job's results.
func resultFor(results []CellResult, key string) CellResult {
	for _, r := range results {
		if r.Key == key {
			return r
		}
	}
	return CellResult{}
}
