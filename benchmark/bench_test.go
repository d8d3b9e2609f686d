package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// testOpts sizes a run for a unit test: tiny traces and short service
// sessions. Digests are pinned only at goldenScale, so they are skipped.
func testOpts(t *testing.T) runOpts {
	return runOpts{seed: devSeed, seconds: 1, scale: 0.02, workers: 2, tmp: t.TempDir()}
}

const testJobs = 12

func hasStale(problems []string) bool {
	for _, p := range problems {
		if strings.HasPrefix(p, "stale:") {
			return true
		}
	}
	return false
}

// TestColdStaysCold runs every workload twice in one process, the way a
// memoizing benchmark suite would share state between runs, and requires
// the second run to be as cold as the first: no profile cache, checkpoint
// or cell cache carried over.
func TestColdStaysCold(t *testing.T) {
	o := testOpts(t)
	for run := 1; run <= 2; run++ {
		p, err := runFiguresPass(context.Background(), o.scale, o.workers, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Problems) > 0 || p.Replayed != 0 {
			t.Errorf("figures run %d: replayed %d, problems %v", run, p.Replayed, p.Problems)
		}
		for name, fn := range map[string]func() (*phase, error){
			"explore": func() (*phase, error) { return runExplore(o, false) },
			"grid":    func() (*phase, error) { return gridSession(o, true, testJobs, "") },
		} {
			ph, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			if ph.failed != 0 || ph.opsDone == 0 {
				t.Errorf("%s run %d: %d ops, %d failed: %v", name, run, ph.opsDone, ph.failed, ph.problems)
			}
		}
	}
	// Every service data dir was removed with its run.
	if left, err := os.ReadDir(o.tmp); err != nil || len(left) != 0 {
		t.Errorf("scratch dir holds %d entries after the runs (err %v)", len(left), err)
	}
}

// TestReuseIsCaught reuses a Suite and a service data dir on purpose: the
// freshness checks that guard every run must fail both.
func TestReuseIsCaught(t *testing.T) {
	o := testOpts(t)
	suite, err := experiments.NewSuite(o.scale)
	if err != nil {
		t.Fatal(err)
	}
	first := &figuresPass{}
	first.run(context.Background(), suite, o.workers, true, nil)
	if len(first.Problems) > 0 {
		t.Fatalf("first pass on a fresh suite: %v", first.Problems)
	}
	again := &figuresPass{}
	again.run(context.Background(), suite, o.workers, true, nil)
	if !hasStale(again.Problems) {
		t.Errorf("a pass over a reused profile cache was not flagged: %v", again.Problems)
	}

	dir := t.TempDir()
	if ph, err := gridSession(o, false, testJobs, dir); err != nil || ph.failed != 0 {
		t.Fatalf("first session on an empty data dir: err %v, problems %v", err, ph.problems)
	}
	ph, err := gridSession(o, false, testJobs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !hasStale(ph.problems) {
		t.Errorf("a session over a reused data dir was not flagged: %v", ph.problems)
	}
}

// TestGridPlan checks the job mix: seeded, the same size for every seed,
// the pinned repeat share, and fresh grids that share no cell.
func TestGridPlan(t *testing.T) {
	const clients, jobs = 2, 200
	for _, seed := range []int64{devSeed, heldOutSeed} {
		plan := gridPlan(seed, clients, jobs)
		again := gridPlan(seed, clients, jobs)
		cells := map[string]bool{}
		n, repeats := 0, 0
		for c := range plan {
			for k, j := range plan[c] {
				n++
				if !reflect.DeepEqual(j, again[c][k]) {
					t.Fatalf("seed %d: plan is not deterministic", seed)
				}
				if j.repeat {
					repeats++
					continue
				}
				for _, cs := range j.req.Cells() {
					if cells[cs.Key()] {
						t.Fatalf("seed %d: fresh job %d of client %d reuses a cell", seed, k, c)
					}
					cells[cs.Key()] = true
				}
			}
		}
		if n != jobs || repeats != clients*(jobs/clients*gridRepeatPct/100) {
			t.Errorf("seed %d: %d jobs, %d repeats", seed, n, repeats)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, program reports %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, program reports %s %s", c.kind, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
