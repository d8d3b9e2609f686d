package engine

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchTrace is the scaled mu3 trace the layer benchmarks run over.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	spec, err := workload.ByName("mu3")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := spec.Generate(0.05)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchOrg is the paper's base organization at 16 KB per side and the
// given set size.
func benchOrg(assoc int) Org {
	cfg := cache.Config{SizeWords: 4096, BlockWords: 4, Assoc: assoc,
		Replacement: cache.Random, WritePolicy: cache.WriteBack, Seed: 1988}
	return Org{ICache: cfg, DCache: cfg}
}

// BenchmarkBuildProfile times the behavioural pass on the fast access
// path, reporting ns per reference and the bytes each profile retains, in
// all and per event.
func BenchmarkBuildProfile(b *testing.B) {
	tr := benchTrace(b)
	for _, g := range []struct {
		name  string
		assoc int
	}{{"dm", 1}, {"2way", 2}, {"8way", 8}} {
		b.Run(g.name, func(b *testing.B) {
			org := benchOrg(g.assoc)
			var p *Profile
			for i := 0; i < b.N; i++ {
				var err error
				if p, err = BuildProfile(org, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/ref")
			reportBytes(b, []*Profile{p})
		})
	}
}

// BenchmarkBuildFamily times the one-walk build of the base
// organization's direct-mapped size family, 4 KB to 4 MB in total at
// 4-word blocks, reporting ns per reference per profile produced: the
// figure to set against BuildProfile/dm's ns/ref. Its B/profile and
// B/event average over the family's profiles.
func BenchmarkBuildFamily(b *testing.B) {
	tr := benchTrace(b)
	var orgs []Org
	for words := 512; words <= 512<<10; words *= 2 {
		cfg := cache.Config{SizeWords: words, BlockWords: 4, Assoc: 1,
			Replacement: cache.Random, WritePolicy: cache.WriteBack, Seed: 1988}
		orgs = append(orgs, Org{ICache: cfg, DCache: cfg})
	}
	var ps []*Profile
	for i := 0; i < b.N; i++ {
		var err error
		if ps, err = BuildFamily(orgs, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len())/float64(len(orgs)), "ns/ref")
	reportBytes(b, ps)
}

// reportBytes reports the profiles' mean retained bytes (Profile.Bytes)
// and their bytes per recorded event.
func reportBytes(b *testing.B, ps []*Profile) {
	bytes, events := 0, 0
	for _, p := range ps {
		bytes += p.Bytes()
		events += p.Events()
	}
	b.ReportMetric(float64(bytes)/float64(len(ps)), "B/profile")
	b.ReportMetric(float64(bytes)/float64(events), "B/event")
}

// BenchmarkReplay times the timing replay of a direct-mapped profile at the
// paper's base memory timings, one sub-benchmark per transfer rate of the
// Section 5 sweep (slower rates keep memory busy longer, so more misses
// wait), reporting ns per recorded event. The lanes case replays the
// base memory's distinct cycle-domain timings over the paper's sixteen
// cycle times in one walk, reporting ns per event per lane.
func BenchmarkReplay(b *testing.B) {
	p, err := BuildProfile(benchOrg(1), benchTrace(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lanes", func(b *testing.B) {
		seen := make(map[CycleTiming]bool)
		var cts []CycleTiming
		for cy := 20; cy <= 80; cy += 4 {
			ct, err := Timing{CycleNs: cy, Mem: mem.DefaultConfig(), WriteBufDepth: 4}.CycleDomain()
			if err != nil {
				b.Fatal(err)
			}
			if !seen[ct] {
				seen[ct] = true
				cts = append(cts, ct)
			}
		}
		for i := 0; i < b.N; i++ {
			if _, err := p.ReplayLanes(cts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Events())/float64(len(cts)), "ns/event")
		b.ReportMetric(float64(len(cts)), "lanes")
	})
	for _, rate := range []mem.Rate{mem.Rate4PerCycle, mem.Rate2PerCycle, mem.Rate1PerCycle, mem.Rate1Per2, mem.Rate1Per4} {
		b.Run(fmt.Sprintf("%dw_per_%dcycle", rate.Num, rate.Den), func(b *testing.B) {
			cfg := mem.DefaultConfig()
			cfg.Transfer = rate
			tm := Timing{CycleNs: 40, Mem: cfg, WriteBufDepth: 4}
			for i := 0; i < b.N; i++ {
				if _, err := p.Replay(tm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Events()), "ns/event")
		})
	}
}
