package obs

import (
	"strings"
	"testing"
	"time"
)

// TestRunFinishRecordsPhases: a run finished with no reporter and no
// capture still carries phases and phase_allocs, in mark order and with
// matching names, and no profiles.
func TestRunFinishRecordsPhases(t *testing.T) {
	run, err := StartRun("run-1", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"generate", "simulate", "report"} {
		run.Phase(name)
	}
	sum, err := run.Finish(nil)
	if err != nil || sum.Dir != "" {
		t.Fatalf("Finish = %+v, %v; want no capture", sum, err)
	}
	m := run.Manifest
	if m.RunID != "run-1" || m.Profiles != nil {
		t.Errorf("manifest id %q, profiles %v", m.RunID, m.Profiles)
	}
	if len(m.Phases) != 3 || len(m.PhaseAllocs) != 3 {
		t.Fatalf("phases %+v, phase_allocs %+v; want 3 of each", m.Phases, m.PhaseAllocs)
	}
	for i, want := range []string{"generate", "simulate", "report"} {
		if m.Phases[i].Name != want || m.PhaseAllocs[i].Name != want {
			t.Errorf("phase %d = %q / %q, want %q", i, m.Phases[i].Name, m.PhaseAllocs[i].Name, want)
		}
	}
	// A second Finish is a no-op and keeps the record.
	if _, err := run.Finish(nil); err != nil || len(m.Phases) != 3 {
		t.Errorf("second Finish: %v, phases %+v", err, m.Phases)
	}
}

// TestRunProgressReadsRunMarks: the progress breakdown lists the run's own
// marks, so what is printed and what the manifest records are the same
// phases.
func TestRunProgressReadsRunMarks(t *testing.T) {
	reg := NewRegistry()
	var w syncWriter
	run, err := StartRun("run-2", "")
	if err != nil {
		t.Fatal(err)
	}
	run.Progress(&w, reg, time.Hour)
	run.Phase("generate")
	run.Phase("fig3-1")
	if _, err := run.Finish(reg); err != nil {
		t.Fatal(err)
	}
	out := w.String()
	if !strings.Contains(out, "fig3-1: 0/0 cells") {
		t.Errorf("final progress line should name the open phase: %q", out)
	}
	for _, p := range run.Manifest.Phases {
		if !strings.Contains(out, "[obs]   "+p.Name) {
			t.Errorf("breakdown lacks manifest phase %q: %q", p.Name, out)
		}
	}
}
