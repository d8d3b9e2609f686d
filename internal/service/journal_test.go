package service

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func openTestJournal(t *testing.T, wrap func(io.Writer) io.Writer) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path, wrap)
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := openTestJournal(t, nil)
	req := GridRequest{Workloads: []string{"mu3"}, SizesKB: []int{2, 4}}
	steps := []error{
		j.Submit("j1", "r1", "", req), j.Start("j1"), j.Done("j1"),
		j.Submit("j2", "", "", req), j.Start("j2"), j.Fail("j2", "boom", "deadline"),
		j.Submit("j3", "", "", req), j.Cancel("j3"),
		j.Submit("j4", "", "", req),                // still queued
		j.Submit("j5", "", "", req), j.Start("j5"), // in flight
		j.Probe(), // breaker probe: no job state
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	jobs, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scan.Quarantined != 0 || stats.Orphans != 0 {
		t.Errorf("clean journal replay stats = %+v", stats)
	}
	want := map[string]JobState{
		"j1": StateDone, "j2": StateFailed, "j3": StateCanceled,
		"j4": StateQueued, "j5": StateRunning,
	}
	if len(jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), len(want))
	}
	for i, jj := range jobs {
		if jj.State != want[jj.ID] {
			t.Errorf("job %s state %s, want %s", jj.ID, jj.State, want[jj.ID])
		}
		if jj.Req.SizesKB[1] != 4 {
			t.Errorf("job %s request mangled: %+v", jj.ID, jj.Req)
		}
		if wantID := []string{"j1", "j2", "j3", "j4", "j5"}[i]; jj.ID != wantID {
			t.Errorf("position %d holds %s, want %s (submission order)", i, jj.ID, wantID)
		}
	}
	if jobs[1].Err != "boom" || jobs[1].Cause != "deadline" {
		t.Errorf("j2 failure detail lost: %+v", jobs[1])
	}
	if jobs[0].Submitted.IsZero() {
		t.Error("submit timestamp lost")
	}
	if jobs[0].ReqID != "r1" || jobs[1].ReqID != "" {
		t.Errorf("request IDs lost: %q, %q", jobs[0].ReqID, jobs[1].ReqID)
	}
}

// TestJournalSurvivesFlakyWrites: every few hundred bytes the underlying
// writer tears or rejects a write; the journal's fence-and-rewrite recovery
// must keep every acknowledged event replayable.
func TestJournalSurvivesFlakyWrites(t *testing.T) {
	for _, mode := range []faultinject.WriteFault{faultinject.WriteEIO, faultinject.ShortWrite} {
		t.Run(mode.String(), func(t *testing.T) {
			var fw *faultinject.FaultyWriter
			j, path := openTestJournal(t, func(w io.Writer) io.Writer {
				fw = faultinject.NewFaultyWriter(w, 100, 300, mode)
				return fw
			})
			req := GridRequest{Workloads: []string{"mu3"}}
			const n = 20
			for i := 0; i < n; i++ {
				id := string(rune('a'+i%26)) + "-job"
				id = id + strings.Repeat("x", i%3) // vary line lengths
				if err := j.Submit(id+itoa(i), "", "", req); err != nil {
					t.Fatalf("submit %d not recovered: %v", i, err)
				}
				if err := j.Done(id + itoa(i)); err != nil {
					t.Fatalf("done %d not recovered: %v", i, err)
				}
			}
			if fw.Faults == 0 {
				t.Fatal("fault injector never fired; test is vacuous")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			jobs, stats, err := ReplayJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			// EIO faults deliver zero bytes, so their fences leave only
			// blank lines; torn fragments (quarantined debris) need
			// ShortWrite.
			if mode == faultinject.ShortWrite && stats.Scan.Quarantined == 0 {
				t.Error("no quarantined debris despite injected short writes")
			}
			if len(jobs) != n {
				t.Fatalf("replayed %d jobs, want %d (faults=%d, stats=%+v)",
					len(jobs), n, fw.Faults, stats)
			}
			for _, jj := range jobs {
				if jj.State != StateDone {
					t.Errorf("job %s state %s, want done", jj.ID, jj.State)
				}
			}
		})
	}
}

// TestJournalSurvivesSilentCorruption: the disk lies — bit flips and torn
// tails reported as full success. Only read-back verification catches
// these at append time; every acknowledged event must replay, with the
// damaged fragments quarantined by the next open's scan.
func TestJournalSurvivesSilentCorruption(t *testing.T) {
	cases := []struct {
		name string
		wrap func(io.Writer) io.Writer
		hits func() int
	}{
		{"bitflip", nil, nil},
		{"truncate", nil, nil},
	}
	var bf *faultinject.BitFlipWriter
	var tw *faultinject.TruncateWriter
	cases[0].wrap = func(w io.Writer) io.Writer {
		bf = faultinject.NewBitFlipWriter(w, 42, 150, 400)
		return bf
	}
	cases[0].hits = func() int { return bf.Faults }
	cases[1].wrap = func(w io.Writer) io.Writer {
		tw = faultinject.NewTruncateWriter(w, 150, 400)
		return tw
	}
	cases[1].hits = func() int { return tw.Faults }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, path := openTestJournal(t, tc.wrap)
			req := GridRequest{Workloads: []string{"mu3"}}
			const n = 15
			for i := 0; i < n; i++ {
				id := "job" + itoa(i)
				if err := j.Submit(id, "", "", req); err != nil {
					t.Fatalf("submit %d not recovered: %v", i, err)
				}
				if err := j.Done(id); err != nil {
					t.Fatalf("done %d not recovered: %v", i, err)
				}
			}
			if tc.hits() == 0 {
				t.Fatal("fault injector never fired; test is vacuous")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			jobs, stats, err := ReplayJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Scan.Quarantined == 0 {
				t.Error("silent corruption left no quarantined debris; read-back never caught it")
			}
			if len(jobs) != n {
				t.Fatalf("lost jobs to a lying disk: replayed %d, want %d (faults=%d, stats=%+v)",
					len(jobs), n, tc.hits(), stats)
			}
			for _, jj := range jobs {
				if jj.State != StateDone {
					t.Errorf("job %s state %s, want done", jj.ID, jj.State)
				}
			}
		})
	}
}

// TestJournalSickAfterPersistentFailure: when every retry fails the append
// reports the error and the journal marks itself sick for readyz.
func TestJournalSickAfterPersistentFailure(t *testing.T) {
	j, _ := openTestJournal(t, func(w io.Writer) io.Writer {
		return faultinject.NewFaultyWriter(w, 0, 1, faultinject.WriteEIO)
	})
	err := j.Submit("j1", "", "", GridRequest{Workloads: []string{"mu3"}})
	if err == nil {
		t.Fatal("append with dead disk returned nil")
	}
	if !errors.Is(err, faultinject.ErrInjectedIO) {
		t.Errorf("error lost the cause: %v", err)
	}
	if j.Err() == nil {
		t.Error("journal not marked sick")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalPausedRejectsWithoutDisk: a paused (degraded) journal fails
// fast with ErrJournalPaused and leaves no sticky error, while Probe still
// reaches the disk.
func TestJournalPausedRejects(t *testing.T) {
	j, path := openTestJournal(t, nil)
	j.SetPaused(true)
	if err := j.Submit("j1", "", "", GridRequest{Workloads: []string{"mu3"}}); !errors.Is(err, ErrJournalPaused) {
		t.Fatalf("paused append err = %v, want ErrJournalPaused", err)
	}
	if j.Err() != nil {
		t.Errorf("paused rejection left a sticky error: %v", j.Err())
	}
	if err := j.Probe(); err != nil {
		t.Fatalf("probe through pause failed: %v", err)
	}
	j.SetPaused(false)
	if err := j.Submit("j2", "", "", GridRequest{Workloads: []string{"mu3"}}); err != nil {
		t.Fatalf("unpaused append failed: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	jobs, _, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j2" {
		t.Errorf("jobs = %+v, want only j2", jobs)
	}
}

// TestReplayJournalSkipsOrphanEvents: events whose submit line was lost
// (torn before acknowledgement) are skipped, not resurrected; unparsable
// garbage is quarantined by the checksum scan.
func TestReplayJournalSkipsOrphanEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	content := `{"t":"start","job":"ghost","time":"2026-08-07T00:00:00Z"}
{"t":"submit","job":"real","time":"2026-08-07T00:00:00Z","req":{"workloads":["mu3"]}}
garbage{{{
{"t":"done","job":"real","time":"2026-08-07T00:00:01Z"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Orphans != 1 {
		t.Errorf("orphans = %d, want 1 (the ghost start)", stats.Orphans)
	}
	if stats.Scan.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1 (the garbage line)", stats.Scan.Quarantined)
	}
	if len(jobs) != 1 || jobs[0].ID != "real" || jobs[0].State != StateDone {
		t.Errorf("jobs = %+v", jobs)
	}
}

// TestReplayJournalEdgeOrdering: duplicated terminal records fold
// idempotently, a late duplicate submit cannot resurrect a finished job,
// a start after a terminal does not reopen it, and a terminal arriving
// before its submit is an orphan (the job safely requeues as queued).
func TestReplayJournalEdgeOrdering(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	content := `{"t":"submit","job":"dup","time":"2026-08-07T00:00:00Z","req":{"workloads":["mu3"]}}
{"t":"start","job":"dup"}
{"t":"done","job":"dup"}
{"t":"done","job":"dup"}
{"t":"submit","job":"dup","req":{"workloads":["mu3"]}}
{"t":"start","job":"dup"}
{"t":"done","job":"early","err":"","cause":""}
{"t":"submit","job":"early","time":"2026-08-07T00:00:02Z","req":{"workloads":["mu3"]}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, stats, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %+v, want dup + early", jobs)
	}
	if jobs[0].ID != "dup" || jobs[0].State != StateDone {
		t.Errorf("dup = %+v, want done despite duplicate submit/start", jobs[0])
	}
	if jobs[1].ID != "early" || jobs[1].State != StateQueued {
		t.Errorf("early = %+v, want queued (terminal-before-submit is an orphan)", jobs[1])
	}
	if stats.Orphans != 1 {
		t.Errorf("orphans = %d, want 1 (the early done)", stats.Orphans)
	}
}

func TestReplayJournalMissingFile(t *testing.T) {
	jobs, stats, err := ReplayJournal(filepath.Join(t.TempDir(), "nope.ndjson"))
	if err != nil || stats.Scan.Records != 0 || stats.Orphans != 0 || jobs != nil {
		t.Errorf("fresh start: jobs=%v stats=%+v err=%v", jobs, stats, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
