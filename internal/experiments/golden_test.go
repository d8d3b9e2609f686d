package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the paper drivers' golden files in testdata/")

// goldenScale is the trace scale the goldens are written at: small enough
// for the whole reproduction to run in a unit test, large enough that every
// figure has misses, write backs and buffer stalls to pin.
const goldenScale = 0.02

// goldenDrivers are the paper drivers in cmd/paperfigs order, each with the
// cheap derivations its figures are built from. One Suite runs them all, as
// paperfigs does, so the goldens also pin the drivers' reuse of each
// other's profiles and cells.
var goldenDrivers = []struct {
	name string
	run  func(context.Context, *Suite) (any, error)
}{
	{"tables", func(_ context.Context, s *Suite) (any, error) {
		return []any{s.Table1(), Table2()}, nil
	}},
	{"fig3-1", func(ctx context.Context, s *Suite) (any, error) { return s.RunFigure31(ctx, nil) }},
	{"speedsize", func(ctx context.Context, s *Suite) (any, error) {
		g, err := s.SpeedSizeGrid(ctx, nil, nil, 1)
		if err != nil {
			return nil, err
		}
		f34, err := RunFigure34(g)
		if err != nil {
			return nil, err
		}
		t3, err := RunTable3(g, nil)
		if err != nil {
			return nil, err
		}
		return []any{RunFigure32(g), RunFigure33(g), f34, t3}, nil
	}},
	{"fig4-1", func(ctx context.Context, s *Suite) (any, error) { return s.RunFigure41(ctx, nil, nil) }},
	{"fig4-2", func(ctx context.Context, s *Suite) (any, error) {
		f, err := s.RunFigure42(ctx, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		be, err := RunBreakEven(f)
		if err != nil {
			return nil, err
		}
		return []any{f, be}, nil
	}},
	{"fig5-1", func(ctx context.Context, s *Suite) (any, error) { return s.RunFigure51(ctx, 0, nil, 0) }},
	{"fig5-2", func(ctx context.Context, s *Suite) (any, error) {
		f52, err := s.RunFigure52(ctx, 0, nil, nil, nil, 0)
		if err != nil {
			return nil, err
		}
		f53, err := RunFigure53(f52)
		if err != nil {
			return nil, err
		}
		return []any{f52, f53, RunFigure54(f53)}, nil
	}},
	{"multilevel", func(ctx context.Context, s *Suite) (any, error) { return s.RunMultilevel(ctx, nil, 0, 0) }},
	{"fetchsize", func(ctx context.Context, s *Suite) (any, error) { return s.RunFetchSize(ctx, 0, 32, nil, 0) }},
	{"splitunified", func(ctx context.Context, s *Suite) (any, error) { return s.RunSplitUnified(ctx, nil, 0) }},
}

// TestPaperGoldens pins every table and figure driver's result, byte for
// byte, against testdata/<driver>.golden. Any change to a simulated bit
// fails here; when a change is meant to alter results, rerun with
// `go test ./internal/experiments -run PaperGoldens -update` (the flag goes
// after the package) and review the diff of the golden files.
func TestPaperGoldens(t *testing.T) {
	s, err := NewSuite(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, d := range goldenDrivers {
		v, err := d.run(ctx, s)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		got, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", d.name+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", d.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: result differs from %s (rerun with -update only if the change is intended)", d.name, path)
		}
	}
}

// TestCellMemoFigure42: Figure 4-2's direct-mapped grid is exactly the
// SpeedSizeGrid(…, 1) sweep. On one Suite the second sweep serves every
// direct-mapped cell from the cell memo — simulating each once — and the
// grids still equal a fresh Suite's.
func TestCellMemoFigure42(t *testing.T) {
	sizes, cycles := []int{8, 16, 32}, []int{20, 40, 60}
	ctx := context.Background()
	reg := obs.NewRegistry()
	s := MustNewSuiteWithTracesForTest(t)
	s.SetExec(ExecOptions{Workers: 2, Metrics: reg})
	if _, err := s.SpeedSizeGrid(ctx, sizes, cycles, 1); err != nil {
		t.Fatal(err)
	}
	refs := reg.Counter(obs.MSimRefs).Value()
	if hits := reg.Counter(obs.MCellsMemoHits).Value(); hits != 0 {
		t.Fatalf("a first sweep hit the memo %d times", hits)
	}
	memoized, err := s.RunFigure42(ctx, sizes, cycles, nil)
	if err != nil {
		t.Fatal(err)
	}
	dmCells := int64(len(sizes) * len(cycles) * len(s.Traces))
	if hits := reg.Counter(obs.MCellsMemoHits).Value(); hits != dmCells {
		t.Errorf("memo hits = %d, want the %d direct-mapped cells", hits, dmCells)
	}
	// Only the set-associative grids simulated anything new: sim_refs grew
	// by three grids' worth, not four.
	if grew := reg.Counter(obs.MSimRefs).Value() - refs; grew != 3*refs {
		t.Errorf("sim_refs grew by %d, want %d (three set-associative grids)", grew, 3*refs)
	}
	m := obs.NewManifest()
	m.FillFromRegistry(reg, 1)
	if m.Cells.MemoHits != dmCells || m.Cells.Cold != 4*dmCells {
		t.Errorf("manifest cells: cold %d, memo hits %d; want %d and %d", m.Cells.Cold, m.Cells.MemoHits, 4*dmCells, dmCells)
	}

	fresh, err := MustNewSuiteWithTracesForTest(t).RunFigure42(ctx, sizes, cycles, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memoized, fresh) {
		t.Error("Figure 4-2 on a Suite that already swept the direct-mapped grid differs from a fresh Suite's")
	}
}
