package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// driver is one paper driver as cmd/paperfigs runs it: the Suite call plus
// the cheap derivations the figures built on it need. The value it returns
// is what the digest pins.
type driver struct {
	name string
	run  func(ctx context.Context, s *experiments.Suite) (any, error)
}

// drivers lists every driver cmd/paperfigs runs, in its order. "tables"
// (Tables 1 and 2) is not a sweep; it is timed so that the drivers add up
// to the whole reproduction.
var drivers = []driver{
	{"tables", func(_ context.Context, s *experiments.Suite) (any, error) {
		return []any{s.Table1(), experiments.Table2()}, nil
	}},
	{"fig3-1", func(ctx context.Context, s *experiments.Suite) (any, error) {
		return s.RunFigure31(ctx, nil)
	}},
	{"speedsize", func(ctx context.Context, s *experiments.Suite) (any, error) {
		g, err := s.SpeedSizeGrid(ctx, nil, nil, 1)
		if err != nil {
			return nil, err
		}
		f34, err := experiments.RunFigure34(g)
		if err != nil {
			return nil, err
		}
		t3, err := experiments.RunTable3(g, nil)
		if err != nil {
			return nil, err
		}
		return []any{experiments.RunFigure32(g), experiments.RunFigure33(g), slopeZones(f34), t3}, nil
	}},
	{"fig4-1", func(ctx context.Context, s *experiments.Suite) (any, error) {
		return s.RunFigure41(ctx, nil, nil)
	}},
	{"fig4-2", func(ctx context.Context, s *experiments.Suite) (any, error) {
		f, err := s.RunFigure42(ctx, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		be, err := experiments.RunBreakEven(f)
		if err != nil {
			return nil, err
		}
		return []any{f, be}, nil
	}},
	{"fig5-1", func(ctx context.Context, s *experiments.Suite) (any, error) {
		return s.RunFigure51(ctx, 0, nil, 0)
	}},
	{"fig5-2", func(ctx context.Context, s *experiments.Suite) (any, error) {
		f52, err := s.RunFigure52(ctx, 0, nil, nil, nil, 0)
		if err != nil {
			return nil, err
		}
		f53, err := experiments.RunFigure53(f52)
		if err != nil {
			return nil, err
		}
		return []any{f52, f53, experiments.RunFigure54(f53)}, nil
	}},
	{"multilevel", func(ctx context.Context, s *experiments.Suite) (any, error) {
		return s.RunMultilevel(ctx, nil, 0, 0)
	}},
	{"fetchsize", func(ctx context.Context, s *experiments.Suite) (any, error) {
		return s.RunFetchSize(ctx, 0, 32, nil, 0)
	}},
	{"splitunified", func(ctx context.Context, s *experiments.Suite) (any, error) {
		return s.RunSplitUnified(ctx, nil, 0)
	}},
}

// slopeZones is Figure 3-4 with the region classification paperfigs
// prints beside it.
func slopeZones(f *experiments.Figure34) any {
	zones := make([][]string, len(f.SlopeNsPerDoubling))
	for i, row := range f.SlopeNsPerDoubling {
		for _, v := range row {
			zones[i] = append(zones[i], fmt.Sprint(analysis.ClassifySlope(v)))
		}
	}
	return []any{f, zones}
}

// driverTime is one driver's cold (and, on traced passes, warm) time. OK
// says the cold run returned without error and matched its pinned digest.
type driverTime struct {
	Name   string  `json:"name"`
	ColdMs float64 `json:"cold_ms"`
	WarmMs float64 `json:"warm_ms,omitempty"`
	OK     bool    `json:"ok"`
}

// figuresPass is the outcome of one cold reproduction in one process.
type figuresPass struct {
	SetupS    []float64    `json:"setup_s"`
	WallS     float64      `json:"wall_s"`
	CPUS      float64      `json:"cpu_s"`
	PeakRSSMB float64      `json:"peak_rss_mb"`
	Drivers   []driverTime `json:"drivers"`
	// Cells and Replayed come from the runner's metrics on traced passes.
	Cells    int64    `json:"cells,omitempty"`
	Replayed int64    `json:"replayed,omitempty"`
	Problems []string `json:"problems,omitempty"`
	Spans    []span   `json:"spans,omitempty"`
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// runFiguresPass generates the traces setupReps times (keeping the last
// Suite), then runs every driver cold on that fresh Suite. A traced pass
// also arms the runner's metrics registry and reruns every driver warm on
// the same Suite: the difference is the behavioural pass. want holds the
// pinned digests (nil skips the comparison).
func runFiguresPass(ctx context.Context, scale float64, workers int, traced bool, want map[string]string) (*figuresPass, error) {
	res := &figuresPass{}
	var suite *experiments.Suite
	for i := 0; i < setupReps; i++ {
		suite = nil // let the previous repetition's traces be collected
		t := time.Now()
		s, err := experiments.NewSuite(scale)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		suite = s
	}
	res.run(ctx, suite, workers, traced, want)
	return res, nil
}

// run times every driver on the suite, cold if the suite is fresh.
func (res *figuresPass) run(ctx context.Context, suite *experiments.Suite, workers int, traced bool, want map[string]string) {
	var sp *spans
	var reg *obs.Registry
	if traced {
		sp = newSpans()
		reg = obs.NewRegistry()
	}
	suite.SetExec(experiments.ExecOptions{Workers: workers, Metrics: reg})

	digests := make(map[string]string, len(drivers))
	cpu0, t0 := cpuTime(), time.Now()
	for _, d := range drivers {
		ts := time.Now()
		v, err := d.run(ctx, suite)
		el := time.Since(ts)
		sp.add("experiments."+d.name+".cold", ts, el)
		res.Drivers = append(res.Drivers, driverTime{Name: d.name, ColdMs: ms(el)})
		if err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", d.name, err))
			continue
		}
		dg, err := digest(v)
		if err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %v", d.name, err))
			continue
		}
		digests[d.name] = dg
		if want != nil && want[d.name] != dg {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: digest %s, pinned %s", d.name, dg, want[d.name]))
			continue
		}
		res.Drivers[len(res.Drivers)-1].OK = true
	}
	res.WallS = time.Since(t0).Seconds()
	res.CPUS = (cpuTime() - cpu0).Seconds()

	if traced {
		for i, d := range drivers {
			ts := time.Now()
			v, err := d.run(ctx, suite)
			el := time.Since(ts)
			sp.add("experiments."+d.name+".warm", ts, el)
			res.Drivers[i].WarmMs = ms(el)
			if err != nil {
				res.Problems = append(res.Problems, fmt.Sprintf("%s warm: %v", d.name, err))
				continue
			}
			if dg, err := digest(v); err != nil || dg != digests[d.name] {
				res.Problems = append(res.Problems, fmt.Sprintf("%s: warm result differs from cold", d.name))
			}
		}
		res.Cells = reg.Counter(obs.MCellsDone).Value()
		res.Replayed = reg.Counter(obs.MCellsReplayed).Value()
		res.Problems = append(res.Problems, res.staleness()...)
		res.Spans = sp.list
	}
	res.PeakRSSMB = peakRSSMB()
}

// staleness reports evidence that the pass was not cold. Cells replayed
// from a checkpoint mean a reused checkpoint. Figure 4-1 is counters only,
// so warm it costs almost nothing while cold it builds 352 profiles: a
// cold time within 3x of the warm one means the Suite's profile cache was
// already full.
func (p *figuresPass) staleness() []string {
	var out []string
	if p.Replayed > 0 {
		out = append(out, fmt.Sprintf("stale: %d cells replayed from a checkpoint", p.Replayed))
	}
	for _, d := range p.Drivers {
		if d.Name == "fig4-1" && d.ColdMs < 3*d.WarmMs {
			out = append(out, fmt.Sprintf("stale: fig4-1 cold %.1f ms is within 3x of warm %.1f ms (profile cache reused)", d.ColdMs, d.WarmMs))
		}
	}
	return out
}

// childFiguresPass runs one figures pass in a fresh process, so that no
// heap, profile cache or lazily built state carries over between passes.
func childFiguresPass(o runOpts, traced bool) (*figuresPass, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "--pass", "figures", "--trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("figures pass: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var p figuresPass
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		return nil, fmt.Errorf("figures pass output: %w", err)
	}
	return &p, nil
}

// runFigures is the figures-cold workload: the paper's whole reproduction,
// cold, once per unit, each pass in a fresh process; the run reports the
// median of each metric over the passes. A traced run makes one pass, with
// the warm rerun and the per-driver spans.
func runFigures(o runOpts, traced bool) (*phase, error) {
	n := o.units()
	if traced {
		n = 1
	}
	ph := &phase{}
	var last *figuresPass
	var walls, cpus, rss, p50s, p90s []float64
	var wallSum float64
	for i := 0; i < n; i++ {
		p, err := childFiguresPass(o, traced)
		if err != nil {
			return nil, err
		}
		ph.setupS = append(ph.setupS, p.SetupS...)
		walls = append(walls, p.WallS)
		wallSum += p.WallS
		cpus = append(cpus, p.CPUS)
		rss = append(rss, p.PeakRSSMB)
		var cold []float64
		for _, d := range p.Drivers {
			cold = append(cold, d.ColdMs)
			if d.OK {
				ph.opsDone++
			}
		}
		p50s = append(p50s, quantile(cold, 0.5))
		p90s = append(p90s, quantile(cold, 0.9))
		ph.attempted += len(p.Drivers)
		ph.fail(p.Problems...)
		last = p
	}
	ph.wallS, ph.cpuS, ph.rssMB = median(walls), median(cpus), median(rss)
	ph.opP50, ph.opP90 = median(p50s), median(p90s)
	ph.opsPerS = float64(ph.opsDone) / wallSum
	if traced {
		ph.layers = figuresLayers(last)
		ph.unaccountedPct = 100 * ph.layers["experiments.unaccounted_ms"] / (ph.wallS * 1000)
		ph.sp = &spans{list: last.Spans}
	}
	return ph, nil
}

// figuresLayers turns a traced pass into the experiments and runner
// per-layer metrics.
func figuresLayers(p *figuresPass) map[string]float64 {
	l := map[string]float64{"runner.cells": float64(p.Cells)}
	var cold, warm float64
	for _, d := range p.Drivers {
		l["experiments."+d.Name+".cold_ms"] = d.ColdMs
		l["experiments."+d.Name+".warm_ms"] = d.WarmMs
		cold += d.ColdMs
		warm += d.WarmMs
	}
	l["experiments.build_ms"] = cold - warm
	l["experiments.unaccounted_ms"] = p.WallS*1000 - cold
	return l
}
