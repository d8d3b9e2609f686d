package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/durable"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/system"
)

// compatFigures runs a counters figure and a replay figure on the suite.
// The cycle times quantize to distinct cycle-domain timings, so every cell
// has its own key and the checkpoint holds one entry per cell.
func compatFigures(t *testing.T, s *Suite) (*Figure31, *analysis.PerfGrid) {
	t.Helper()
	ctx := context.Background()
	fig31, err := s.RunFigure31(ctx, sweepSizes)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := s.SpeedSizeGrid(ctx, sweepSizes, []int{20, 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fig31, grid
}

// instrumentedLine returns a checkpoint payload with the cell output's
// keys as the sweep's cycle attribution and 3C explanations once wrote
// them: replay cells (those with a cpr) carried "attrib", counters cells
// "explain".
func instrumentedLine(t *testing.T, payload []byte) []byte {
	t.Helper()
	var entry struct {
		Key   string                     `json:"key"`
		Value map[string]json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(payload, &entry); err != nil {
		t.Fatal(err)
	}
	var warm system.Counters
	if err := json.Unmarshal(entry.Value["warm"], &warm); err != nil {
		t.Fatal(err)
	}
	var extra any
	key := "explain"
	if _, replay := entry.Value["cpr"]; replay {
		key = "attrib"
		extra = simtrace.Attribution{BaseIssue: warm.Couplets, Cycles: warm.Cycles}
	} else {
		misses := warm.IfetchMisses + warm.LoadMisses + warm.StoreMisses
		extra = explain.Report{Sides: []explain.SideReport{{Label: "all", Refs: warm.Refs, Misses: misses,
			ThreeC: explain.ThreeC{Compulsory: misses}}}}
	}
	raw, err := json.Marshal(extra)
	if err != nil {
		t.Fatal(err)
	}
	entry.Value[key] = raw
	out, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointWithInstrumentKeysReplays: a checkpoint written while the
// sweep still recorded cycle attribution and 3C explanations carries
// "attrib" and "explain" keys in its cell outputs. The keys are ignored on
// decode, so every entry replays and the figures equal a fresh Suite's.
func TestCheckpointWithInstrumentKeysReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	cp, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	first := MustNewSuiteWithTracesForTest(t)
	first.SetExec(ExecOptions{Workers: 2, Checkpoint: cp})
	compatFigures(t, first)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := durable.ScanFile(path, durable.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(durable.Frame(instrumentedLine(t, r.Payload)))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"attrib":`, `"explain":`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Fatalf("the rewritten checkpoint carries no %s key", key)
		}
	}

	cp2, err := runner.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Len() != len(recs) {
		t.Fatalf("reopened checkpoint holds %d entries, wrote %d", cp2.Len(), len(recs))
	}
	resumed := MustNewSuiteWithTracesForTest(t)
	reg := obs.NewRegistry()
	resumed.SetExec(ExecOptions{Workers: 2, Checkpoint: cp2, Metrics: reg})
	gotFig, gotGrid := compatFigures(t, resumed)
	if got := reg.Counter(obs.MCellsReplayed).Value(); got != int64(len(recs)) {
		t.Errorf("cells_replayed = %d, want every one of the %d entries", got, len(recs))
	}
	if built := reg.Counter(obs.MProfilesBuilt).Value(); built != 0 {
		t.Errorf("profiles_built = %d on a fully replayed resume, want 0", built)
	}
	wantFig, wantGrid := compatFigures(t, MustNewSuiteWithTracesForTest(t))
	if !reflect.DeepEqual(gotFig, wantFig) || !reflect.DeepEqual(gotGrid, wantGrid) {
		t.Error("figures resumed from the instrumented checkpoint differ from a fresh Suite's")
	}
}
