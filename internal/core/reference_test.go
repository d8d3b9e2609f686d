package core

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// referenceEvaluate is Evaluate without the Suite: a direct per-trace
// BuildProfile and Replay, aggregated as Evaluate aggregates. profiles
// caches the built profiles by organization across calls.
func referenceEvaluate(t *testing.T, traces []*trace.Trace, profiles map[engine.Org][]*engine.Profile, point DesignPoint) Evaluation {
	t.Helper()
	p := point.normalize()
	org, err := p.org()
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := profiles[org]
	if !ok {
		for _, tr := range traces {
			prof, err := engine.BuildProfile(org, tr)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, prof)
		}
		profiles[org] = ps
	}
	depth := p.WriteBufDepth
	if p.NoWriteBuffer {
		depth = 0
	}
	tm := engine.Timing{CycleNs: p.CycleNs, Mem: p.Mem, WriteBufDepth: depth}
	var execs, cprs, miss []float64
	for _, prof := range ps {
		res, err := prof.Replay(tm)
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, res.ExecTimeNs())
		cprs = append(cprs, res.Warm.CyclesPerRef())
		m := res.Warm.ReadMissRatio()
		if m <= 0 {
			m = 1e-9
		}
		miss = append(miss, m)
	}
	out := Evaluation{Point: p, MissPenaltyCycles: p.Mem.MustQuantize(p.CycleNs).ReadCycles(p.BlockWords)}
	out.ExecNs = stats.MustGeoMean(execs)
	out.CyclesPerRef = stats.MustGeoMean(cprs)
	out.ReadMissRatio = stats.MustGeoMean(miss)
	return out
}

// TestEvaluateMatchesReference: Evaluate, served through the Suite's
// profile cache and cell memo, equals bit for bit the direct per-trace
// BuildProfile + Replay aggregation on a seeded sample of design points.
// The sample reuses few organizations, so many points share profiles and
// some share cycle-domain timings; every point is evaluated twice, the
// second time from the memo.
func TestEvaluateMatchesReference(t *testing.T) {
	traces := testExplorer(t).Traces()
	e, err := NewExplorer(traces)
	if err != nil {
		t.Fatal(err)
	}
	rates := []mem.Rate{mem.Rate4PerCycle, mem.Rate2PerCycle, mem.Rate1PerCycle, mem.Rate1Per2, mem.Rate1Per4}
	rng := rand.New(rand.NewSource(7))
	var points []DesignPoint
	for k := 0; k < 50; k++ {
		p := DesignPoint{
			TotalKB:    []int{8, 32, 128}[rng.Intn(3)],
			BlockWords: []int{4, 16}[rng.Intn(2)],
			Assoc:      []int{1, 2}[rng.Intn(2)],
			CycleNs:    20 + rng.Intn(61),
		}
		if rng.Intn(3) > 0 {
			p.Mem = mem.UniformLatency(100+rng.Intn(321), rates[rng.Intn(len(rates))])
		}
		switch rng.Intn(3) {
		case 0:
			p.NoWriteBuffer = true
		case 1:
			p.WriteBufDepth = 1
		}
		points = append(points, p)
	}
	profiles := make(map[engine.Org][]*engine.Profile)
	for pass := 0; pass < 2; pass++ {
		for k, p := range points {
			got, err := e.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceEvaluate(t, traces, profiles, p); got != want {
				t.Fatalf("pass %d, point %d %+v:\nexplorer  %+v\nreference %+v", pass, k, p, got, want)
			}
		}
	}
}
