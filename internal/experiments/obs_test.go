package experiments

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/runner"
)

// buildManifestForTest assembles a manifest for a suite the way paperfigs
// does: the configuration identity hashes the scale, the figure selection
// and the trace fingerprints.
func buildManifestForTest(s *Suite, figs []string, reg *obs.Registry, wall time.Duration) *obs.Manifest {
	m := obs.NewManifest()
	m.Scale = s.Scale
	m.Figures = figs
	m.TraceFingerprints = s.Fingerprints()
	m.ConfigHash = obs.ConfigHash("paperfigs/v1", s.Scale, figs, m.TraceFingerprints)
	m.FillFromRegistry(reg, wall)
	return m
}

// TestSweepMetricsEndToEnd: a real (tiny) sweep through the suite feeds the
// registry — planned/done tallies, a non-empty latency histogram and a
// non-zero simulated-reference count.
func TestSweepMetricsEndToEnd(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{Workers: 2, Metrics: reg})
	if _, err := s.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1); err != nil {
		t.Fatal(err)
	}
	want := int64(len(sweepSizes) * len(sweepCycles) * len(s.Traces))
	if got := reg.Counter(obs.MCellsPlanned).Value(); got != want {
		t.Errorf("planned = %d, want %d", got, want)
	}
	if got := reg.Counter(obs.MCellsDone).Value(); got != want {
		t.Errorf("done = %d, want %d", got, want)
	}
	if got := reg.Counter(obs.MCellsFailed).Value(); got != 0 {
		t.Errorf("failed = %d", got)
	}
	if got := reg.Gauge(obs.MCellsInflight).Value(); got != 0 {
		t.Errorf("inflight after sweep = %d", got)
	}
	lat := reg.Timing(obs.MCellLatency).Snapshot()
	if lat.Count != want {
		t.Errorf("latency count = %d, want %d", lat.Count, want)
	}
	if got := reg.Counter(obs.MSimRefs).Value(); got == 0 {
		t.Error("sim_refs = 0 after a real sweep")
	}
}

// TestSweepMetricsInCatalog: a sweep with the differential oracle armed
// (so every profile comes from its own checked pass and every replay cell
// replays on its own) registers only catalog metrics of their declared
// kind, and its profile builds feed the profile_cache_bytes gauge.
func TestSweepMetricsInCatalog(t *testing.T) {
	s := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	s.SetExec(ExecOptions{Workers: 2, Metrics: reg, SelfCheck: &check.Options{}})
	if _, err := s.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1); err != nil {
		t.Fatal(err)
	}
	resident := false
	for _, m := range reg.Export() {
		resident = resident || m.Name == obs.MProfileCacheBytes && m.Value > 0
		if d, ok := obs.Lookup(m.Name); !ok || d.Kind != m.Kind {
			t.Errorf("registry metric %q (%s) is not a catalog entry of that kind", m.Name, m.Kind)
		}
	}
	if built := reg.Counter(obs.MProfilesBuilt).Value(); built != int64(len(sweepSizes)*len(s.Traces)) {
		t.Errorf("profiles_built = %d, want one checked pass per (size, trace) = %d", built, len(sweepSizes)*len(s.Traces))
	}
	if !resident {
		t.Errorf("sweep built profiles but %s is not positive", obs.MProfileCacheBytes)
	}
}

// TestManifestStableAcrossResume: interrupt-free first run vs a resumed run
// over the same checkpoint produce the same manifest config hash — the
// property that makes manifests diffable across resumes.
func TestManifestStableAcrossResume(t *testing.T) {
	figs := []string{"fig3-2"}
	path := filepath.Join(t.TempDir(), "sweep.ndjson")

	// First run: fresh checkpoint, all cells computed.
	cp, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := MustNewSuiteWithTracesForTest(t)
	reg1 := obs.NewRegistry()
	s1.SetExec(ExecOptions{Workers: 2, Checkpoint: cp, Metrics: reg1})
	if _, err := s1.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1); err != nil {
		t.Fatal(err)
	}
	m1 := buildManifestForTest(s1, figs, reg1, time.Second)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run: a fresh suite over the same traces replays every cell
	// from the checkpoint instead of recomputing.
	cp2, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	s2 := MustNewSuiteWithTracesForTest(t)
	reg2 := obs.NewRegistry()
	s2.SetExec(ExecOptions{Workers: 2, Checkpoint: cp2, Metrics: reg2})
	if _, err := s2.SpeedSizeGrid(context.Background(), sweepSizes, sweepCycles, 1); err != nil {
		t.Fatal(err)
	}
	m2 := buildManifestForTest(s2, figs, reg2, time.Second)

	if m1.ConfigHash != m2.ConfigHash {
		t.Errorf("config hash changed across resume: %s vs %s", m1.ConfigHash, m2.ConfigHash)
	}
	if m1.ConfigHash == "" {
		t.Error("config hash empty")
	}
	// The environment fingerprint is process-constant, so a run resumed in
	// the same environment fingerprints identically — what makes its ledger
	// records honestly comparable.
	if m1.Host != m2.Host {
		t.Errorf("environment fingerprint changed across resume:\n first   %+v\n resumed %+v", m1.Host, m2.Host)
	}
	if m1.Host.GoVersion == "" || m1.Host.GOMAXPROCS <= 0 {
		t.Errorf("fingerprint incomplete: %+v", m1.Host)
	}
	// The resumed run served everything from the checkpoint.
	if m2.Cells.Replayed != m1.Cells.Done || m2.Cells.Done != 0 {
		t.Errorf("resumed cells = %+v, want %d replayed", m2.Cells, m1.Cells.Done)
	}
	// Fresh run simulated references; the replayed run simulated none.
	if m1.Throughput.RefsSimulated == 0 {
		t.Error("first run recorded no simulated references")
	}
	if m2.Throughput.RefsSimulated != 0 {
		t.Errorf("resumed run claims %d simulated references", m2.Throughput.RefsSimulated)
	}

	// Round-trip the first manifest to disk like the CLI does.
	mp := filepath.Join(t.TempDir(), "run.manifest.json")
	if err := m1.Write(mp); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadManifest(mp)
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfigHash != m1.ConfigHash {
		t.Errorf("config hash lost in round-trip")
	}
}
