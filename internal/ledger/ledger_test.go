package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perfobs"
)

func sampleRecord(id string, cycles int64) Record {
	return Record{
		Schema:       SchemaVersion,
		RunID:        id,
		Time:         time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC),
		Tool:         "cachesim",
		ConfigHash:   "deadbeef00112233",
		Outcome:      "ok",
		WallMs:       123,
		Cells:        Cells{Planned: 2, Done: 2},
		LatencyP50Us: 511,
		LatencyP95Us: 2047,
		Refs:         10_000,
		RefsPerSec:   81_300.8,
		TotalCycles:  cycles,
		CPI:          float64(cycles) / 10_000,
		Attribution:  map[string]int64{"base_issue": cycles - 1000, "load_miss_stall": 1000},
		Warmup:       map[string]int64{"mu3": 4096},
		Env:          Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4},
	}
}

// TestAppendReadRoundTrip: append → read returns the same records in
// append order, byte-exact through JSON.
func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := []Record{sampleRecord("run-1", 15000), sampleRecord("run-2", 15100)}
	for _, rec := range want {
		path, err := Append(dir, rec)
		if err != nil {
			t.Fatal(err)
		}
		if path != filepath.Join(dir, FileName) {
			t.Fatalf("path = %s", path)
		}
	}
	got, stats, err := Read(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ReadStats{}) {
		t.Errorf("stats = %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		if !g.Time.Equal(want[i].Time) {
			t.Errorf("record %d time = %v, want %v", i, g.Time, want[i].Time)
		}
		g.Time = want[i].Time // zone representation differs after JSON
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
}

// TestAppendStampsSchema: a record appended without a schema version gets
// the current one.
func TestAppendStampsSchema(t *testing.T) {
	dir := t.TempDir()
	rec := sampleRecord("run-1", 15000)
	rec.Schema = 0
	if _, err := Append(dir, rec); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", got[0].Schema, SchemaVersion)
	}
}

// TestReadSkipsNewerSchema: records from a future schema are skipped and
// counted, not misread; records with no schema at all count as corrupt.
func TestReadSkipsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	if _, err := Append(dir, sampleRecord("run-1", 15000)); err != nil {
		t.Fatal(err)
	}
	future := sampleRecord("run-future", 9)
	future.Schema = SchemaVersion + 1
	if _, err := Append(dir, future); err != nil {
		t.Fatal(err)
	}
	got, stats, err := Read(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || stats.SkippedNewer != 1 {
		t.Errorf("got %d records, stats %+v; want 1, SkippedNewer 1", len(got), stats)
	}

	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(bad, []byte("{\"run_id\":\"no-schema\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, stats, err := Read(bad); err != nil || len(recs) != 0 || stats.Corrupt != 1 {
		t.Errorf("schema-less record: recs=%d stats=%+v err=%v", len(recs), stats, err)
	}
}

// TestReadSurvivesCorruption: damaged lines cost the damaged records, not
// the whole history, and Read never rewrites the file (concurrent
// appenders may still be writing it).
func TestReadSurvivesCorruption(t *testing.T) {
	if _, _, err := Read(filepath.Join(t.TempDir(), "missing.ndjson")); err == nil {
		t.Error("missing file: want error")
	}
	dir := t.TempDir()
	if _, err := Append(dir, sampleRecord("run-1", 15000)); err != nil {
		t.Fatal(err)
	}
	path := Path(dir)
	if err := os.WriteFile(path, append(readAll(t, path), []byte("{not json\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Append(dir, sampleRecord("run-2", 15100)); err != nil {
		t.Fatal(err)
	}
	before := readAll(t, path)
	recs, stats, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || stats.Corrupt != 1 {
		t.Errorf("recs=%d stats=%+v; want 2 intact, 1 corrupt", len(recs), stats)
	}
	if string(readAll(t, path)) != string(before) {
		t.Error("Read rewrote the ledger file")
	}

	// A flipped bit inside a checksummed record is caught by the CRC, not
	// returned as plausible-but-wrong history.
	fdir := t.TempDir()
	if _, err := Append(fdir, sampleRecord("run-flip", 15200)); err != nil {
		t.Fatal(err)
	}
	fpath := Path(fdir)
	flipped := readAll(t, fpath)
	flipped[len(flipped)/2] ^= 0x20
	if err := os.WriteFile(fpath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats, err = Read(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.Corrupt != 1 {
		t.Errorf("after bit flip: recs=%d stats=%+v", len(recs), stats)
	}
}

// TestRepairQuarantinesAndUpgrades: the single-owner repair pass excises
// corrupt lines into the sidecar, upgrades legacy records to checksummed
// frames, and keeps newer-schema records (only a newer tool can read
// them, but they are not corrupt).
func TestRepairQuarantinesAndUpgrades(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir)
	future := sampleRecord("run-future", 9)
	future.Schema = SchemaVersion + 1
	legacyLine, err := json.Marshal(sampleRecord("run-legacy", 14000))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(legacyLine, "\ngarbage{{\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Append(dir, future); err != nil {
		t.Fatal(err)
	}
	stats, err := Repair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 || stats.Legacy != 1 || !stats.Repaired {
		t.Fatalf("repair stats = %+v", stats)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	recs, rstats, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || rstats.Corrupt != 0 || rstats.Legacy != 0 || rstats.SkippedNewer != 1 {
		t.Errorf("post-repair read: recs=%d stats=%+v", len(recs), rstats)
	}
	if recs[0].RunID != "run-legacy" {
		t.Errorf("surviving record = %s", recs[0].RunID)
	}
	// A clean ledger repairs to a no-op.
	if stats, err := Repair(dir); err != nil || stats.Repaired {
		t.Errorf("second repair: stats=%+v err=%v", stats, err)
	}
	// So does a missing one.
	if _, err := Repair(filepath.Join(t.TempDir(), "empty")); err != nil {
		t.Errorf("missing ledger repair: %v", err)
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFromManifest: the manifest → record projection carries identity,
// shape, percentiles, throughput, the environment fingerprint, and derives
// cycle totals from the attribution rollup (conservation makes the sum the
// simulated cycle count).
func TestFromManifest(t *testing.T) {
	m := obs.NewManifest()
	m.RunID = "r-1"
	m.ConfigHash = "cafe0123"
	m.Outcome = "ok"
	m.WallMs = 777
	m.Cells = obs.ManifestCells{Planned: 10, Done: 8, Replayed: 1, Failed: 1, Panicked: 1, Retried: 2}
	m.CellLatency = obs.TimingSnapshot{Count: 9, MeanUs: 100, P50Us: 127, P95Us: 255, MaxUs: 300}
	m.Throughput = obs.ManifestThroughput{RefsSimulated: 50_000, RefsPerSec: 1000, CellsPerSec: 2}
	m.Attribution = map[string]int64{"base_issue": 60_000, "mem_wait": 15_000}
	m.Warmup = []obs.ManifestWarmup{{Trace: "mu3", Window: 3, StartRef: 12_288}}
	m.Perf = &perfobs.Fingerprint{AllocBytes: 4096}

	rec := FromManifest(m, "paperfigs")
	if rec.Schema != SchemaVersion || rec.RunID != "r-1" || rec.Tool != "paperfigs" {
		t.Errorf("identity = %+v", rec)
	}
	if rec.ConfigHash != "cafe0123" || rec.Outcome != "ok" || rec.WallMs != 777 {
		t.Errorf("metadata = %+v", rec)
	}
	if rec.Cells != (Cells{Planned: 10, Done: 8, Replayed: 1, Failed: 1}) {
		t.Errorf("cells = %+v", rec.Cells)
	}
	if rec.LatencyP50Us != 127 || rec.LatencyP95Us != 255 {
		t.Errorf("latency = %d/%d", rec.LatencyP50Us, rec.LatencyP95Us)
	}
	if rec.TotalCycles != 75_000 {
		t.Errorf("total cycles = %d, want 75000 (attribution sum)", rec.TotalCycles)
	}
	if rec.CPI != 1.5 {
		t.Errorf("cpi = %v, want 1.5", rec.CPI)
	}
	if rec.Warmup["mu3"] != 12_288 {
		t.Errorf("warmup = %+v", rec.Warmup)
	}
	if rec.Env.GoVersion != m.Host.GoVersion || rec.Env.GOMAXPROCS != m.Host.GOMAXPROCS {
		t.Errorf("env = %+v", rec.Env)
	}
	if rec.Perf != m.Perf {
		t.Errorf("perf = %+v, want the manifest's fingerprint", rec.Perf)
	}
}

// TestSetCycles: the direct warm-cycle override replaces the attribution
// totals and derives CPI and throughput from them.
func TestSetCycles(t *testing.T) {
	rec := sampleRecord("r", 15000)
	rec.SetCycles(40_000, 60_000, 2*time.Second)
	if rec.Refs != 40_000 || rec.TotalCycles != 60_000 || rec.CPI != 1.5 || rec.RefsPerSec != 20_000 {
		t.Errorf("after SetCycles: refs %d cycles %d cpi %v refs/s %v", rec.Refs, rec.TotalCycles, rec.CPI, rec.RefsPerSec)
	}
}

// TestRunRecordsOneID is the regression test for a run recorded under two
// IDs: the manifest, the ledger record projected from it and the profile
// capture directory all carry the run's one ID.
func TestRunRecordsOneID(t *testing.T) {
	dir := t.TempDir()
	run, err := obs.StartRun(obs.RunID(), dir)
	if err != nil {
		t.Fatal(err)
	}
	run.Phase("simulate")
	// Start a second clock second so a fresh RunID() would differ.
	time.Sleep(1100 * time.Millisecond)
	sum, err := run.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := run.Manifest
	rec := FromManifest(m, "cachesim")
	if m.RunID != run.ID() || rec.RunID != run.ID() || filepath.Base(sum.Dir) != run.ID() {
		t.Fatalf("ids differ: run %s, manifest %s, record %s, capture dir %s", run.ID(), m.RunID, rec.RunID, sum.Dir)
	}
	for _, p := range m.Profiles {
		if filepath.Base(filepath.Dir(p.Path)) != run.ID() {
			t.Errorf("profile %s is not under the run's directory", p.Path)
		}
	}
	if rec.Perf == nil || rec.Perf != m.Perf || len(rec.Perf.PhaseAllocs) != 1 {
		t.Errorf("record perf = %+v, want the manifest's fingerprint with its phase", rec.Perf)
	}
}

// TestFixtureReads: the checked-in fixture (shared with cmd/simreport's
// golden tests) parses and keeps its shape.
func TestFixtureReads(t *testing.T) {
	recs, stats, err := Read(filepath.Join("testdata", FileName))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 0 || stats.SkippedNewer != 0 || len(recs) != 4 {
		t.Fatalf("fixture: %d records, stats %+v", len(recs), stats)
	}
	if got := len(ByConfig(recs, "a1b2c3d4e5f60718")); got != 3 {
		t.Errorf("cachesim config history = %d, want 3", got)
	}
	last := recs[len(recs)-1]
	if last.Tool != "paperfigs" || last.TotalCycles != 3_200_000 {
		t.Errorf("last fixture record = %+v", last)
	}
}

func TestFindRun(t *testing.T) {
	recs, _, err := Read(filepath.Join("testdata", FileName))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := FindRun(recs, "latest"); err != nil || r.RunID != "20260804T120000Z-44" {
		t.Errorf("latest = %v, %v", r.RunID, err)
	}
	if r, err := FindRun(recs, "prev"); err != nil || r.RunID != "20260803T100000Z-33" {
		t.Errorf("prev = %v, %v", r.RunID, err)
	}
	if r, err := FindRun(recs, "20260802"); err != nil || r.RunID != "20260802T100000Z-22" {
		t.Errorf("prefix = %v, %v", r.RunID, err)
	}
	if _, err := FindRun(recs, "2026080"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous prefix: err = %v", err)
	}
	if _, err := FindRun(recs, "nope"); err == nil {
		t.Error("unknown selector: want error")
	}
	if _, err := FindRun(nil, "latest"); err == nil {
		t.Error("empty ledger: want error")
	}
}

// TestConcurrentAppend: parallel appenders never tear records — every line
// in the resulting file parses.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := Append(dir, sampleRecord(fmt.Sprintf("run-%02d", i), int64(15000+i)))
			errc <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	recs, stats, err := Read(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n || stats != (ReadStats{}) {
		t.Errorf("read %d records, stats %+v; want %d intact", len(recs), stats, n)
	}
}
