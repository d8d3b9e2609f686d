// Command cachesim simulates one system configuration against one or more
// traces and prints the statistics the paper reports: miss ratios, traffic
// ratios, cycles per reference and execution time.
//
// The system comes from a JSON spec file (-spec, see the config package)
// optionally overridden by flags; the stimulus is either a named Table 1
// workload synthesized on the fly (-workload, -scale) or a trace file
// (-trace, binary .ctrace or Dinero-style .din).
//
// Examples:
//
//	cachesim -workload mu3 -scale 0.25
//	cachesim -workload all -size 32 -cycle 50
//	cachesim -spec system.json -trace prog.din
//	cachesim -workload rd2n4 -l2 512 -l2access 3
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/explain"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		specPath  = flag.String("spec", "", "JSON system spec file (default: the paper's base system)")
		wl        = flag.String("workload", "", "Table 1 workload name, or 'all'")
		scale     = flag.Float64("scale", 0.25, "workload scale (1.0 = the paper's trace lengths)")
		trPath    = flag.String("trace", "", "trace file (.din text or binary)")
		totalKB   = flag.Int("size", 0, "override: total L1 size in KB (split evenly)")
		blockW    = flag.Int("block", 0, "override: block size in words")
		fetchW    = flag.Int("fetch", 0, "override: fetch size in words (sub-block placement)")
		assoc     = flag.Int("assoc", 0, "override: set size (1 = direct mapped)")
		cycleNs   = flag.Int("cycle", 0, "override: cycle time in ns")
		l2KB      = flag.Int("l2", 0, "add a second-level cache of this many KB")
		l2Access  = flag.Int("l2access", 3, "L2 access time in cycles")
		l2BlockW  = flag.Int("l2block", 16, "L2 block size in words")
		memLatNs  = flag.Int("memlat", 0, "override: uniform memory latency in ns")
		unified   = flag.Bool("unified", false, "unified cache instead of split I/D")
		showTotal = flag.Bool("total", false, "report the whole trace, not just the warm window")
		showHist  = flag.Bool("hist", false, "report couplet service-time percentiles")
		selfcheck = flag.Bool("selfcheck", false, "run in lockstep with the reference cache model, failing on any divergence")
		checkEvry = flag.Int("selfcheck-every", check.DefaultEvery, "structural invariant interval in references (with -selfcheck)")

		attrib    = flag.Bool("attrib", false, "decompose the cycle count into attribution components (conservation-checked)")
		explainOn = flag.Bool("explain", false, "classify every miss as compulsory/capacity/conflict and record reuse-distance and set-pressure profiles (reported after the tables)")
		intervals = flag.Int("intervals", 0, "emit an interval window every N references: CPI sparkline, warm-up estimate, window records")
		intervOut = flag.String("intervals-out", "", "write interval windows to this file (.csv for CSV, anything else NDJSON; with -intervals)")
		eventsOut = flag.String("events", "", "write the run's timeline events to this file as Chrome trace-event JSON (load in Perfetto)")
		manifest  = flag.String("manifest", "", "write a run manifest JSON here (includes attribution and warm-up when armed)")
		ledgerDir = flag.String("ledger", "", "append a compact run record to the ledger in this directory (inspect with simreport)")
		profDir   = flag.String("profile", "", "capture CPU+heap pprof profiles into DIR/<run-id>/ (the 16 newest runs are kept) and list them in the manifest; read them with go tool pprof")
	)
	flag.Parse()

	spec := config.Default()
	if *specPath != "" {
		var err error
		if spec, err = config.Load(*specPath); err != nil {
			return err
		}
	}
	var vs []config.Variation
	if *totalKB > 0 {
		vs = append(vs, config.WithTotalSizeKB(*totalKB))
	}
	if *blockW > 0 {
		vs = append(vs, config.WithBlockWords(*blockW))
	}
	if *fetchW > 0 {
		vs = append(vs, config.WithFetchWords(*fetchW))
	}
	if *assoc > 0 {
		vs = append(vs, config.WithAssoc(*assoc))
	}
	if *cycleNs > 0 {
		vs = append(vs, config.WithCycleNs(*cycleNs))
	}
	if *memLatNs > 0 {
		vs = append(vs, config.WithUniformMemory(*memLatNs, 1, 1))
	}
	spec = spec.Apply(vs...)
	spec.Unified = spec.Unified || *unified
	cfg, err := spec.System()
	if err != nil {
		return err
	}
	if *l2KB > 0 {
		cfg.L2 = &system.L2Config{
			Cache: cache.Config{
				SizeWords:     *l2KB * 1024 / 4,
				BlockWords:    *l2BlockW,
				Assoc:         1,
				Replacement:   cache.Random,
				WritePolicy:   cache.WriteBack,
				WriteAllocate: true,
				Seed:          1988,
			},
			AccessCycles:  *l2Access,
			WriteBufDepth: 4,
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
	}

	// The run record brackets the whole run — trace generation through
	// reporting — so its phases and the -profile capture see the same hot
	// paths a production sweep would. Without -profile no capture runs and
	// output is bit-identical.
	run, err := obs.StartRun(obs.RunID(), *profDir)
	if err != nil {
		return err
	}
	defer run.Finish(nil) //nolint:errcheck // releases the profiler on early error returns; the success path finishes below
	run.Phase("generate")

	traces, err := loadTraces(*wl, *trPath, *scale)
	if err != nil {
		return err
	}

	fmt.Printf("system: %d ns cycle, I %s, D %s", cfg.CycleNs, describe(cfg.ICache, cfg.Unified), cfg.DCache.String())
	if cfg.L2 != nil {
		fmt.Printf(", L2 %s (+%d cycles)", cfg.L2.Cache.String(), cfg.L2.AccessCycles)
	}
	fmt.Printf(", memory %d/%d/%d ns @ %s\n\n", cfg.Mem.ReadNs, cfg.Mem.WriteNs, cfg.Mem.RecoverNs, cfg.Mem.Transfer)

	cfg.CollectLatencies = *showHist
	if *selfcheck {
		cfg.SelfCheck = &check.Options{Every: *checkEvry}
		fmt.Println("selfcheck: differential oracle enabled; divergences abort the run")
	}
	if *attrib || *intervals > 0 || *eventsOut != "" {
		cfg.Trace = &simtrace.Options{
			Attrib:       *attrib,
			IntervalRefs: *intervals,
			Events:       *eventsOut != "",
		}
	}
	if *explainOn {
		opts := explain.All()
		cfg.Explain = &opts
	}

	// Ctrl-C cancels the sweep; traces that already finished are still
	// reported, the rest are marked in the partial report below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One cell per trace: each runs its own simulator instance, so the
	// traces run concurrently with panic isolation per trace.
	type simOut struct {
		res  system.Result
		hist *stats.Hist
		rec  *simtrace.Recorder
		// expWarm/expTotal are the run's explainability reports (warm window
		// and whole trace), nil without -explain. Both are extracted inside
		// the cell: the system instance does not outlive it.
		expWarm  *explain.Report
		expTotal *explain.Report
	}
	cells := make([]runner.Cell[simOut], len(traces))
	for i, tr := range traces {
		tr := tr
		cells[i] = runner.Cell[simOut]{
			Key: tr.Name,
			Run: func(ctx context.Context) (simOut, error) {
				sys, err := system.New(cfg)
				if err != nil {
					return simOut{}, err
				}
				res, err := sys.Run(tr)
				if err != nil {
					return simOut{}, err
				}
				out := simOut{res: res, hist: sys.CoupletLatencies(), rec: sys.Recorder()}
				if exp := sys.Explainer(); exp.On() {
					out.expWarm, out.expTotal = exp.ReportWarm(), exp.Report()
				}
				return out, nil
			},
		}
	}
	// All per-trace failures route through one slog handler, which
	// serializes each record into a single write — traces failing
	// concurrently on the worker pool can no longer interleave their
	// error text on stderr.
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo, slog.String("run", run.ID()))
	// The registry exists only for ledgered runs (it feeds the ledger
	// record's cell tallies and latency percentiles); without -ledger the
	// hooks and output are exactly as before.
	var reg *obs.Registry
	if *ledgerDir != "" {
		reg = obs.NewRegistry()
		reg.Counter(obs.MCellsPlanned).Add(int64(len(cells)))
	}
	start := time.Now()
	onStart, onDone := obs.RunnerHooks(reg, logger)
	run.Phase("simulate")
	results := runner.Run(ctx, cells, runner.Options{
		OnCellStart: onStart, OnCellDone: onDone, OnSweepDone: obs.SweepDone(logger),
	})
	run.Phase("report")

	tab := textplot.NewTable("", "trace", "refs", "cycles", "cyc/ref", "exec ms",
		"load miss%", "ifetch miss%", "wr traffic", "buf stalls", "mem util%")
	type histRow struct {
		name string
		h    *stats.Hist
	}
	type recRow struct {
		name string
		rec  *simtrace.Recorder
	}
	type expRow struct {
		name        string
		warm, total *explain.Report
	}
	var hists []histRow
	var recs []recRow
	var exps []expRow
	var failed []*runner.CellError
	for i, r := range results {
		if !r.Done {
			failed = append(failed, r.Err)
			continue
		}
		res := r.Value.res
		w := res.Warm
		if *showTotal {
			w = res.Total
		}
		tab.Row(traces[i].Name, w.Refs, w.Cycles, w.CyclesPerRef(),
			float64(w.Cycles)*float64(cfg.CycleNs)/1e6,
			100*w.LoadMissRatio(), 100*w.IfetchMissRatio(),
			w.WriteTrafficRatioBlocks(), w.BufFullStallCycles,
			100*res.Total.MemUtilization())
		if *showHist {
			hists = append(hists, histRow{traces[i].Name, r.Value.hist})
		}
		if r.Value.rec != nil {
			recs = append(recs, recRow{traces[i].Name, r.Value.rec})
		}
		if r.Value.expWarm != nil {
			exps = append(exps, expRow{traces[i].Name, r.Value.expWarm, r.Value.expTotal})
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	if *showHist {
		fmt.Println()
		ht := textplot.NewTable("couplet service time (cycles; percentile upper bounds)",
			"trace", "mean", "p50", "p90", "p99", "max")
		for _, hr := range hists {
			ht.Row(hr.name, hr.h.Mean(), hr.h.Percentile(0.5), hr.h.Percentile(0.9),
				hr.h.Percentile(0.99), hr.h.Max)
		}
		if err := ht.Render(os.Stdout); err != nil {
			return err
		}
	}
	if *attrib {
		fmt.Println()
		at := textplot.NewTable("cycle attribution (sum of components == cycles, by construction)",
			"trace", "component", "cycles", "share%")
		for _, rr := range recs {
			a := rr.rec.AttributionWarm()
			if *showTotal {
				a = rr.rec.Attribution()
			}
			for _, comp := range a.Components() {
				if comp.Cycles == 0 {
					continue
				}
				// Zero-safe share: a window with no cycles (degenerate trace)
				// reports 0 rather than NaN.
				share := 0.0
				if a.Cycles > 0 {
					share = 100 * float64(comp.Cycles) / float64(a.Cycles)
				}
				at.Row(rr.name, comp.Name, comp.Cycles, share)
			}
		}
		if err := at.Render(os.Stdout); err != nil {
			return err
		}
	}
	if *explainOn {
		window := "warm window"
		if *showTotal {
			window = "whole trace"
		}
		for _, er := range exps {
			rep := er.warm
			if *showTotal {
				rep = er.total
			}
			fmt.Printf("\nexplain: %s (%s)\n", er.name, window)
			if err := explain.RenderText(os.Stdout, rep); err != nil {
				return err
			}
		}
	}
	var warmups []obs.ManifestWarmup
	if *intervals > 0 {
		fmt.Println()
		fmt.Printf("interval CPI (one glyph per %d-ref window):\n", *intervals)
		for _, rr := range recs {
			line := fmt.Sprintf("  %-8s %s", rr.name, textplot.Sparkline(rr.rec.CPISeries()))
			if w, ref, ok := rr.rec.WarmupEstimate(0); ok {
				line += fmt.Sprintf("  warm-up ~ window %d (ref %d)", w, ref)
				warmups = append(warmups, obs.ManifestWarmup{Trace: rr.name, Window: w, StartRef: ref})
			} else {
				line += "  warm-up: no stable point"
			}
			fmt.Println(line)
		}
		if *intervOut != "" {
			for _, rr := range recs {
				path := splicePath(*intervOut, rr.name, len(recs) > 1)
				if err := writeIntervals(path, rr.rec); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "intervals: %s\n", path)
			}
		}
	}
	if *eventsOut != "" {
		for _, rr := range recs {
			path := splicePath(*eventsOut, rr.name, len(recs) > 1)
			if err := writeChromeTrace(path, rr.rec); err != nil {
				return err
			}
			if n := rr.rec.DroppedEvents(); n > 0 {
				fmt.Fprintf(os.Stderr, "events: %s (ring overflowed; newest %d events kept, %d dropped)\n",
					path, len(rr.rec.Events()), n)
			} else {
				fmt.Fprintf(os.Stderr, "events: %s\n", path)
			}
		}
	}
	// Finish the run before the manifest/ledger block so the phases and
	// the profile paths land in both. The capture snapshots the heap
	// profile after a forced GC, so the report phase's allocations are
	// attributed too.
	sum, err := run.Finish(reg)
	if err != nil {
		return err
	}
	if sum.Dir != "" {
		fmt.Fprintf(os.Stderr, "profiles: %s\n", sum)
	}
	if *manifest != "" || *ledgerDir != "" {
		m := run.Manifest
		m.ConfigHash = obs.ConfigHash("cachesim/v1", spec, *wl, *trPath, *scale)
		m.Warmup = warmups
		if *attrib && len(recs) > 0 {
			m.Attribution = make(map[string]int64)
			for _, rr := range recs {
				for _, comp := range rr.rec.AttributionWarm().Components() {
					m.Attribution[comp.Name] += comp.Cycles
				}
				m.AttribCells++
			}
		}
		if len(exps) > 0 {
			// The manifest rollup is always the warm window, like the
			// attribution rollup: records of one config must measure the
			// same thing whatever -total displayed.
			merged := &explain.Report{}
			for _, er := range exps {
				if err := merged.Merge(er.warm); err != nil {
					return err
				}
				m.ExplainCells++
			}
			m.Explain = merged
		}
		if len(failed) > 0 {
			m.Outcome = fmt.Sprintf("failed: %d trace(s) did not complete", len(failed))
		} else {
			m.Outcome = "ok"
		}
		if *manifest != "" {
			if err := m.Write(*manifest); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "manifest: %s\n", *manifest)
		}
		if *ledgerDir != "" {
			rec := ledger.FromManifest(m, "cachesim")
			// Cycle totals come from the simulator's own warm-window
			// counters, not attribution (so they are ledgered even without
			// -attrib). Always the warm window, whatever -total shows:
			// -total is not part of the config hash, and records of one
			// config must measure the same thing.
			var sumRefs, sumCycles int64
			for _, r := range results {
				if r.Done {
					sumRefs += r.Value.res.Warm.Refs
					sumCycles += r.Value.res.Warm.Cycles
				}
			}
			rec.SetCycles(sumRefs, sumCycles, time.Since(start))
			path, lerr := ledger.Append(*ledgerDir, rec)
			if lerr != nil {
				return lerr
			}
			fmt.Fprintf(os.Stderr, "ledger: %s\n", path)
		}
	}
	if len(failed) > 0 {
		// Each failure was already logged through the slog handler as it
		// happened; finish with the tally only.
		s := runner.Summarize(results)
		fmt.Fprintf(os.Stderr, "\npartial results: %d/%d traces done, %d failed or not run\n",
			s.Done, s.Total, s.Failed+s.NotRun)
		return fmt.Errorf("%d trace(s) did not complete", len(failed))
	}
	return nil
}

// splicePath inserts the trace name before the path's extension when the
// run covers multiple traces, so per-trace outputs do not overwrite each
// other: out.json -> out-mu3.json.
func splicePath(path, name string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + name + ext
}

// writeIntervals writes the recorder's window records: CSV when the path
// ends in .csv, NDJSON otherwise.
func writeIntervals(path string, rec *simtrace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".csv" {
		err = rec.WriteWindowsCSV(f)
	} else {
		err = rec.WriteWindowsNDJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeChromeTrace writes the recorder's event ring as Chrome trace-event
// JSON.
func writeChromeTrace(path string, rec *simtrace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func describe(c cache.Config, unified bool) string {
	if unified {
		return "(unified)"
	}
	return c.String()
}

// loadTraces resolves the stimulus selection. Every trace is validated at
// this single ingestion point, whether synthesized or read from disk.
func loadTraces(wl, trPath string, scale float64) ([]*trace.Trace, error) {
	var traces []*trace.Trace
	switch {
	case wl != "" && trPath != "":
		return nil, fmt.Errorf("use either -workload or -trace, not both")
	case wl == "all":
		var err error
		if traces, err = workload.GenerateAll(scale); err != nil {
			return nil, err
		}
	case wl != "":
		spec, err := workload.ByName(wl)
		if err != nil {
			return nil, fmt.Errorf("%v (known: %s)", err, strings.Join(workload.Names(), ", "))
		}
		t, err := spec.Generate(scale)
		if err != nil {
			return nil, err
		}
		traces = []*trace.Trace{t}
	case trPath != "":
		tr, err := trace.ReadFile(trPath)
		if err != nil {
			return nil, err
		}
		traces = []*trace.Trace{tr}
	default:
		return nil, fmt.Errorf("choose a stimulus: -workload <name|all> or -trace <file>")
	}
	for _, t := range traces {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("stimulus %s: %w", t.Name, err)
		}
	}
	return traces, nil
}
