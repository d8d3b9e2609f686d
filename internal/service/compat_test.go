package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
)

// TestLegacyUnframedFilesCompat: data dirs written before checksummed
// framing — plain JSON lines in the journal, cell cache and ledger — must
// open cleanly: the journal replays and requeues, memoized cells serve
// bit-identical results, the ledger reads back, and none of it is
// mistaken for corruption. Clean legacy files are NOT rewritten (upgrade
// happens only when a repair rewrites anyway), so a downgrade stays
// possible until the first real corruption.
func TestLegacyUnframedFilesCompat(t *testing.T) {
	dir := t.TempDir()
	req := smallGrid()

	// A pre-upgrade journal: one submitted-but-unfinished job (requeues)
	// and one finished job, as plain unframed JSON lines.
	reqJSON, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	journal := fmt.Sprintf(`{"t":"submit","job":"j-old-1","time":"2026-08-01T10:00:00Z","req":%s}
{"t":"start","job":"j-old-1","time":"2026-08-01T10:00:01Z"}
{"t":"submit","job":"j-old-2","time":"2026-08-01T10:00:02Z","req":%s}
{"t":"done","job":"j-old-2","time":"2026-08-01T10:00:03Z"}
`, reqJSON, reqJSON)
	if err := os.WriteFile(filepath.Join(dir, JournalName), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	// A pre-upgrade cell cache holding the direct simulation of every cell
	// in the grid, as plain unframed JSON lines.
	var cells []byte
	want := map[string]CellResult{}
	for _, cs := range req.Cells() {
		r, err := cs.Simulate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[cs.Key()] = r
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(map[string]json.RawMessage{
			"key":   json.RawMessage(`"` + cs.Key() + `"`),
			"value": raw,
		})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, line...)
		cells = append(cells, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, CellCacheName), cells, 0o644); err != nil {
		t.Fatal(err)
	}

	// A pre-upgrade ledger line.
	oldLedger := `{"schema":1,"run_id":"j-old-2","time":"2026-08-01T10:00:03Z","tool":"cachesimd","outcome":"ok"}` + "\n"
	if err := os.WriteFile(ledger.Path(dir), []byte(oldLedger), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("opening a pre-upgrade data dir: %v", err)
	}

	// Nothing legacy was mistaken for corruption.
	for _, m := range []string{obs.MJournalQuarantined, obs.MCellsQuarantined, obs.MLedgerQuarantined} {
		if v := s.Registry().Counter(m).Value(); v != 0 {
			t.Errorf("%s = %d on clean legacy files", m, v)
		}
	}
	// Clean legacy files are not rewritten on open.
	if got, err := os.ReadFile(ledger.Path(dir)); err != nil || string(got) != oldLedger {
		t.Errorf("clean legacy ledger was rewritten (err=%v):\n%s", err, got)
	}

	// The finished job restored terminal; the in-flight one requeued and —
	// because every cell is already memoized — replays bit-identically.
	doneJob, ok := s.Job("j-old-2")
	if !ok || doneJob.Status().State != StateDone {
		t.Fatalf("legacy finished job not restored done (ok=%v)", ok)
	}
	s.Start()
	job, ok := s.Job("j-old-1")
	if !ok {
		t.Fatal("legacy in-flight job not restored")
	}
	st := waitTerminal(t, job, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("legacy job ended %s (%s)", st.State, st.Error)
	}
	if st.Cells.Replayed != len(want) {
		t.Errorf("replayed %d cells from the legacy cache, want %d", st.Cells.Replayed, len(want))
	}
	for _, r := range job.Results() {
		if !reflect.DeepEqual(r, want[r.Key]) {
			t.Errorf("cell %s diverges from the legacy cache:\n got %+v\nwant %+v", r.Key, r, want[r.Key])
		}
	}

	// The legacy ledger record reads back alongside the new framed append.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := ledger.Read(ledger.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 0 || stats.Legacy != 1 {
		t.Errorf("ledger stats = %+v, want 1 legacy and 0 corrupt", stats)
	}
	if len(recs) != 2 || recs[0].RunID != "j-old-2" || recs[1].RunID != job.ID() {
		t.Errorf("ledger records = %+v", recs)
	}
}

// TestJournalClientKeysCompat: a journal written by a server that still
// kept per-client quotas carries a "client" key on each submit entry
// (testdata/journal-client-keys.ndjson: one job submitted over HTTP as
// client alice and finished, one submitted anonymously and running when
// the server was drained). It replays with nothing quarantined, both jobs
// keep their request IDs and states, the in-flight one runs to done, and
// no status a client reads carries the retired client and cost fields.
func TestJournalClientKeysCompat(t *testing.T) {
	dir := t.TempDir()
	old, err := os.ReadFile(filepath.Join("testdata", "journal-client-keys.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, JournalName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testConfig(dir))
	if err != nil {
		t.Fatalf("opening a journal with client keys: %v", err)
	}
	defer s.Drain(context.Background())
	if v := s.Registry().Counter(obs.MJournalQuarantined).Value(); v != 0 {
		t.Errorf("%s = %d, want 0", obs.MJournalQuarantined, v)
	}
	done, ok := s.Job("jd89106db7dfd53e5")
	if !ok {
		t.Fatal("finished job not restored")
	}
	if st := done.Status(); st.State != StateDone || st.RequestID != "compat-alice-1" {
		t.Errorf("finished job restored as %s, request_id %q", st.State, st.RequestID)
	}
	queued, ok := s.Job("j08025c152cfd2422")
	if !ok {
		t.Fatal("in-flight job not restored")
	}
	if st := queued.Status(); st.State != StateQueued || st.RequestID != "compat-anon-2" {
		t.Errorf("in-flight job restored as %s, request_id %q", st.State, st.RequestID)
	}
	s.Start()
	if st := waitTerminal(t, queued, 30*time.Second); st.State != StateDone {
		t.Fatalf("requeued job ended %s (%s)", st.State, st.Error)
	}
	for _, job := range []*Job{done, queued} {
		raw, err := json.Marshal(job.Status())
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"client", "cost"} {
			if _, ok := fields[k]; ok {
				t.Errorf("job %s status carries %q: %s", job.ID(), k, raw)
			}
		}
	}
}
