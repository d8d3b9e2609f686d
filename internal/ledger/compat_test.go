package ledger

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/explain"
	"repro/internal/perfobs"
)

// upgradeFixture is a ledger appended across the removal of explain's
// reuse-distance and set-heat instruments: its first record, a
// `cachesim -workload mu3 -scale 0.05 -explain` run, carries the dropped
// "reuse" and "heat_*" keys; its second, the same workload at 2-way
// associativity, carries the 3C classification only.
var upgradeFixture = filepath.Join("testdata", "explain_upgrade.ndjson")

// TestReadsRecordsWithRetiredExplainKeys: a record written with the
// retired keys passes its checksum (the CRC covers the raw line) and
// decodes to its 3C totals, and diffing it against a 3C-only record
// reports the composition shift.
func TestReadsRecordsWithRetiredExplainKeys(t *testing.T) {
	recs, stats, err := Read(upgradeFixture)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 0 || stats.SkippedNewer != 0 || len(recs) != 2 {
		t.Fatalf("%d records, stats %+v", len(recs), stats)
	}
	old, cur := recs[0], recs[1]
	if old.Explain == nil || cur.Explain == nil {
		t.Fatal("a record lost its explain report")
	}
	if got, want := old.Explain.Total3C(), (explain.ThreeC{Compulsory: 1386, Conflict: 192}); got != want {
		t.Errorf("old record 3C = %+v, want %+v", got, want)
	}
	if got := old.Explain.TotalMisses(); got != 1578 {
		t.Errorf("old record misses = %d, want 1578", got)
	}
	if d := old.Explain.Side("D"); d == nil || d.Refs != 22664 || d.ThreeC.Conflict != 176 {
		t.Errorf("old record D side = %+v", d)
	}

	d := ComputeDiff(old, cur, nil, perfobs.Thresholds{})
	shift := make(map[string]perfobs.FuncDelta)
	for _, fd := range d.Explain {
		shift[fd.Func] = fd
	}
	// Conflict share 192/1578 = 12.17% → 29/1415 = 2.05%.
	conf, ok := shift["conflict"]
	if !ok {
		t.Fatalf("diff carries no conflict shift: %+v", d.Explain)
	}
	if math.Abs(conf.OldPct-12.167) > 0.01 || math.Abs(conf.NewPct-2.049) > 0.01 || conf.DeltaPts > -10 {
		t.Errorf("conflict shift = %+v, want 12.17%% → 2.05%%", conf)
	}
	if comp := shift["compulsory"]; math.Abs(comp.DeltaPts+conf.DeltaPts) > 1e-9 {
		t.Errorf("compulsory shift %+v does not mirror conflict's %v pts", comp, conf.DeltaPts)
	}
}
