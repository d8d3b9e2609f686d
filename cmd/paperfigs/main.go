// Command paperfigs regenerates every table and figure in the paper's
// evaluation from the synthesized workloads: Table 1 (traces), Table 2
// (memory cycle counts), Figures 3-1 through 3-4 (speed–size), Figures 4-1
// through 4-5 and Table 3 (associativity and miss penalty), Figures 5-1
// through 5-4 (block size versus memory speed), and the Section 6
// multilevel experiment.
//
// Examples:
//
//	paperfigs                      # everything at the default scale
//	paperfigs -scale 1.0           # full paper-length traces (slow)
//	paperfigs -only fig3-4,fig5-4  # a subset
//	paperfigs -charts              # add ASCII charts to the tables
//	paperfigs -checkpoint f.ndjson # resumable: Ctrl-C, rerun, continue
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/explain"
	"repro/internal/faultinject"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simtrace"
	"repro/internal/textplot"
)

type figure struct {
	name  string
	title string
	run   func(*figRunner, io.Writer) error
}

// figRunner carries the context, the suite and the expensive grids shared
// between figures.
type figRunner struct {
	ctx    context.Context
	suite  *experiments.Suite
	charts bool
	csvDir string

	dmGrid *analysis.PerfGrid
	fig42  *experiments.Figure42
}

// writeCSV dumps one figure's raw data when -csvdir is set.
func (r *figRunner) writeCSV(name string, header []string, rows [][]string) error {
	if r.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gridCSV converts a (sizes × cycles) grid into CSV rows.
func gridCSV(sizes, cycles []int, vals [][]float64) (header []string, rows [][]string) {
	header = []string{"total_kb"}
	for _, cy := range cycles {
		header = append(header, fmt.Sprintf("%dns", cy))
	}
	for i, kb := range sizes {
		row := []string{strconv.Itoa(kb)}
		for j := range cycles {
			row = append(row, strconv.FormatFloat(vals[i][j], 'g', 8, 64))
		}
		rows = append(rows, row)
	}
	return header, rows
}

func (r *figRunner) grid() (*analysis.PerfGrid, error) {
	if r.dmGrid == nil {
		g, err := r.suite.SpeedSizeGrid(r.ctx, nil, nil, 1)
		if err != nil {
			return nil, err
		}
		r.dmGrid = g
	}
	return r.dmGrid, nil
}

func (r *figRunner) figure42() (*experiments.Figure42, error) {
	if r.fig42 == nil {
		f, err := r.suite.RunFigure42(r.ctx, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		r.fig42 = f
	}
	return r.fig42, nil
}

var figures = []figure{
	{"table1", "Table 1: Description of the Traces", runTable1},
	{"table2", "Table 2: Memory Access Cycle Counts", runTable2},
	{"fig3-1", "Figure 3-1: Miss Ratios and Traffic Ratios vs Cache Size", runFig31},
	{"fig3-2", "Figure 3-2: Speed-Size Tradeoff: Cycle Count", runFig32},
	{"fig3-3", "Figure 3-3: Speed-Size Tradeoff: Execution Time", runFig33},
	{"fig3-4", "Figure 3-4: Lines of Equal Performance", runFig34},
	{"fig4-1", "Figure 4-1: Read Miss Ratio vs Set Size", runFig41},
	{"fig4-2", "Figure 4-2: Execution Time vs Set Size", runFig42},
	{"fig4-3", "Figures 4-3..4-5: Set Associativity Cycle Time Tradeoff", runFig43to45},
	{"table3", "Table 3: Memory Performance versus Cache Miss Penalty", runTable3},
	{"fig5-1", "Figure 5-1: Miss Ratio and Execution Time vs Block Size", runFig51},
	{"fig5-2", "Figure 5-2: Execution Time vs Memory Parameters", runFig52},
	{"fig5-3", "Figure 5-3: Optimal Block Size vs Memory Parameters", runFig53},
	{"fig5-4", "Figure 5-4: Optimal Block Size vs Memory Speed Product", runFig54},
	{"multilevel", "Section 6: Multilevel Cache Experiment", runMultilevel},
	{"fetchsize", "Extension: Fetch Size (Sub-Block Placement)", runFetchSize},
	{"splitunified", "Extension: Split vs Unified Caches", runSplitUnified},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		scale   = flag.Float64("scale", experiments.DefaultScale, "workload scale (1.0 = paper trace lengths)")
		only    = flag.String("only", "", "comma-separated figure names (default: all)")
		charts  = flag.Bool("charts", false, "render ASCII charts alongside tables")
		csvDir  = flag.String("csvdir", "", "also write each figure's raw data as CSV into this directory")
		list    = flag.Bool("list", false, "list figure names and exit")
		ckpt    = flag.String("checkpoint", "", "NDJSON checkpoint log: completed sweep cells are recorded here and replayed on rerun")
		jobs    = flag.Int("jobs", 0, "sweep worker count (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 0, "whole-sweep deadline per figure (0 = none)")
		retries = flag.Int("retries", 0, "extra attempts granted to each failing sweep cell")

		selfcheck = flag.Bool("selfcheck", false, "run every sweep cell in lockstep with the reference cache model, failing on any divergence")
		checkEvry = flag.Int("selfcheck-every", check.DefaultEvery, "structural invariant interval in references (with -selfcheck)")
		faultSpec = flag.String("faults", "", "deterministic fault-injection plan, e.g. 'seed=1,panic=0.02,slow=0.01,transient=0.1' (testing the runner)")

		attrib    = flag.Bool("attrib", false, "arm cycle attribution in every freshly computed cell; the aggregate lands in the registry and run manifest")
		explainOn = flag.Bool("explain", false, "arm 3C miss classification in every freshly computed cell; the aggregate lands in the registry and run manifest")
		eventsOut = flag.String("events", "", "write a representative cell's timeline as Chrome trace-event JSON to this file")

		progress  = flag.Duration("progress", 0, "print sweep progress/ETA lines to stderr at this interval (0 = off)")
		debugAddr = flag.String("debug-addr", "", "serve live expvar and pprof on this address (e.g. :8080; :0 picks a free port)")
		profDir   = flag.String("profile", "", "capture CPU+heap pprof profiles into DIR/<run-id>/ (the 16 newest runs are kept); arms the manifest, which lists them; read them with go tool pprof")
		manifest  = flag.String("manifest", "", "write the run manifest JSON here (default when observability is on: <checkpoint>.manifest.json, else paperfigs.manifest.json)")
		ledgerDir = flag.String("ledger", "", "append a compact run record to the ledger in this directory (inspect with simreport)")
		logLevel  = flag.String("log", "info", "structured log level on stderr: debug, info, warn, error")
	)
	flag.Parse()

	if *list {
		for _, f := range figures {
			fmt.Printf("%-12s %s\n", f.name, f.title)
		}
		return nil
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(n)] = true
		}
		for n := range selected {
			if !knownFigure(n) {
				return fmt.Errorf("unknown figure %q (use -list)", n)
			}
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	// The structured event stream: cell errors, retries and checkpoint
	// events share one machine-parseable stderr stream with run-scoped
	// attributes.
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	// The run record: one ID, one phase clock and, with -profile, a capture
	// bracketing trace generation through the last figure.
	run, err := obs.StartRun(obs.RunID(), *profDir)
	if err != nil {
		return err
	}
	defer run.Finish(nil) //nolint:errcheck // stops the reporter and the capture on early error returns; the manifest defer below finishes first
	logger := obs.NewLogger(os.Stderr, level,
		slog.String("run", run.ID()), slog.Float64("scale", *scale))

	// Observability is off by default: the registry, reporter, debug
	// server and manifest only exist when one of their flags asks.
	// -attrib counts as asking: its aggregate is reported via the manifest.
	// -ledger arms the registry and the in-memory manifest (the ledger
	// record is its projection) but writes no manifest file of its own.
	manifestOn := *progress > 0 || *debugAddr != "" || *manifest != "" || *attrib || *explainOn || *profDir != ""
	obsOn := manifestOn || *ledgerDir != ""
	manifestPath := *manifest
	if manifestOn && manifestPath == "" {
		if *ckpt != "" {
			manifestPath = *ckpt + ".manifest.json"
		} else {
			manifestPath = "paperfigs.manifest.json"
		}
	}
	var reg *obs.Registry
	if obsOn {
		reg = obs.NewRegistry()
	}
	if *debugAddr != "" {
		srv, serr := obs.Serve(*debugAddr, reg)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s — /debug/vars (expvar), /debug/pprof/\n", srv.Addr)
	}
	if *progress > 0 {
		run.Progress(os.Stderr, reg, *progress)
	}
	run.Phase("generate")

	// Ctrl-C (or SIGTERM) cancels the sweep context: in-flight cells
	// finish, the checkpoint is flushed, the manifest is written, and the
	// partial-grid report below says how to resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	fmt.Printf("generating the eight Table 1 workloads at scale %g...\n", *scale)
	suite, err := experiments.NewSuite(*scale)
	if err != nil {
		return err
	}
	exec := experiments.ExecOptions{Workers: *jobs, Retries: *retries, SweepTimeout: *timeout, Metrics: reg, Log: logger}
	if *selfcheck {
		exec.SelfCheck = &check.Options{Every: *checkEvry}
		fmt.Println("selfcheck: differential oracle enabled; divergences fail their cells")
	}
	if *faultSpec != "" {
		plan, perr := faultinject.ParsePlan(*faultSpec)
		if perr != nil {
			return perr
		}
		exec.Faults = plan
		fmt.Fprintf(os.Stderr, "fault injection armed: %s\n", *faultSpec)
	}
	if *attrib || *eventsOut != "" {
		exec.Trace = &simtrace.Options{Attrib: *attrib, Events: *eventsOut != ""}
		if *attrib {
			fmt.Println("attrib: cycle attribution armed in every freshly computed cell")
		}
	}
	if *explainOn {
		opts := explain.All()
		exec.Explain = &opts
		fmt.Println("explain: 3C miss classification armed in every freshly computed cell")
	}
	var cp *runner.Checkpoint
	if *ckpt != "" {
		if cp, err = runner.OpenCheckpoint(*ckpt); err != nil {
			return err
		}
		defer func() {
			if cerr := cp.Close(); cerr != nil {
				logger.Error("checkpoint close failed", "path", *ckpt, "err", cerr)
			}
		}()
		logger.Info("checkpoint opened", "path", *ckpt, "entries", cp.Len())
		if cp.Len() > 0 {
			fmt.Printf("checkpoint %s: %d completed cells will be replayed\n", *ckpt, cp.Len())
		}
		exec.Checkpoint = cp
	}
	suite.SetExec(exec)
	r := &figRunner{ctx: ctx, suite: suite, charts: *charts, csvDir: *csvDir}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))

	// The figures this invocation will run, in run order (for the
	// manifest's configuration identity).
	var figNames []string
	for _, f := range figures {
		if len(selected) == 0 || selected[f.name] {
			figNames = append(figNames, f.name)
		}
	}
	if obsOn {
		m := run.Manifest
		m.Scale = suite.Scale
		m.Figures = figNames
		m.TraceFingerprints = suite.Fingerprints()
		m.ConfigHash = obs.ConfigHash("paperfigs/v1", suite.Scale, figNames, m.TraceFingerprints)
		if *ckpt != "" {
			m.Checkpoint = &obs.ManifestCheckpoint{Path: *ckpt}
		}
		defer func() {
			// Finish the run first so the phases and the profile paths
			// land in the manifest (and the ledger projection below) even
			// on interrupted or failed runs.
			if sum, ferr := run.Finish(reg); ferr != nil {
				logger.Error("profile capture failed", "err", ferr)
			} else if sum.Dir != "" {
				fmt.Fprintf(os.Stderr, "profiles: %s\n", sum)
			}
			if cp != nil {
				m.Checkpoint.Entries = cp.Len()
			}
			switch {
			case err == nil:
				m.Outcome = "ok"
			case ctx.Err() != nil:
				m.Outcome = "interrupted"
			default:
				m.Outcome = "failed: " + err.Error()
			}
			if manifestOn {
				if werr := m.Write(manifestPath); werr != nil {
					logger.Error("manifest write failed", "path", manifestPath, "err", werr)
				} else {
					fmt.Fprintf(os.Stderr, "manifest: %s\n", manifestPath)
				}
			}
			if *ledgerDir != "" {
				// The ledger record is the manifest's cross-run projection;
				// interrupted and failed runs are ledgered too (with their
				// outcome), so history shows every invocation.
				if path, lerr := ledger.Append(*ledgerDir, ledger.FromManifest(m, "paperfigs")); lerr != nil {
					logger.Error("ledger append failed", "dir", *ledgerDir, "err", lerr)
				} else {
					fmt.Fprintf(os.Stderr, "ledger: %s\n", path)
				}
			}
		}()
	}

	for _, f := range figures {
		if len(selected) > 0 && !selected[f.name] {
			continue
		}
		run.Phase(f.name)
		t0 := time.Now()
		fmt.Printf("\n================ %s ================\n", f.title)
		if err := f.run(r, os.Stdout); err != nil {
			var se *runner.SweepError
			if errors.As(err, &se) {
				reportPartial(os.Stderr, f.name, se, *ckpt)
			}
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fmt.Printf("[%s in %v]\n", f.name, time.Since(t0).Round(time.Millisecond))
	}
	if *attrib && reg != nil {
		if err := renderAttribution(os.Stdout, reg); err != nil {
			return err
		}
	}
	if *explainOn && reg != nil {
		if err := renderExplain(os.Stdout, reg); err != nil {
			return err
		}
	}
	if *eventsOut != "" {
		if rec := suite.EventTrace(); rec == nil {
			fmt.Fprintln(os.Stderr, "events: no cell was freshly computed with the event ring armed (all replayed from checkpoint?); nothing written")
		} else {
			f, ferr := os.Create(*eventsOut)
			if ferr != nil {
				return ferr
			}
			werr := rec.WriteChromeTrace(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
			fmt.Fprintf(os.Stderr, "events: %s (a representative cell's timeline; which cell depends on worker scheduling)\n", *eventsOut)
		}
	}
	fmt.Printf("\ntotal %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// renderAttribution prints the registry's aggregate cycle attribution
// across every freshly computed cell, largest component first.
func renderAttribution(w io.Writer, reg *obs.Registry) error {
	comps := reg.CounterValuesWithPrefix(obs.MAttribPrefix)
	cells := reg.Counter(obs.MAttribCells).Value()
	if len(comps) == 0 || cells == 0 {
		fmt.Fprintln(w, "\nattribution: no freshly computed cells (all replayed from checkpoint?)")
		return nil
	}
	names := make([]string, 0, len(comps))
	var total int64
	for n, v := range comps {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool {
		if comps[names[i]] != comps[names[j]] {
			return comps[names[i]] > comps[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintln(w)
	tab := textplot.NewTable(fmt.Sprintf("aggregate cycle attribution over %d freshly computed cells (warm windows)", cells),
		"component", "cycles", "share%")
	for _, n := range names {
		// Zero-safe share: a degenerate run whose components all measured
		// zero cycles reports 0 rather than NaN.
		share := 0.0
		if total > 0 {
			share = 100 * float64(comps[n]) / float64(total)
		}
		tab.Row(n, comps[n], share)
	}
	return tab.Render(w)
}

// renderExplain prints the registry's aggregate 3C miss classification
// across every freshly computed cell.
func renderExplain(w io.Writer, reg *obs.Registry) error {
	cells := reg.Counter(obs.MExplainCells).Value()
	if cells == 0 {
		fmt.Fprintln(w, "\nexplain: no freshly computed cells (all replayed from checkpoint?)")
		return nil
	}
	c3 := explain.ThreeC{
		Compulsory: reg.Counter(obs.MExplainCompulsory).Value(),
		Capacity:   reg.Counter(obs.MExplainCapacity).Value(),
		Conflict:   reg.Counter(obs.MExplainConflict).Value(),
	}
	comp, cap3, conf := c3.SharePct()
	fmt.Fprintln(w)
	tab := textplot.NewTable(fmt.Sprintf("aggregate 3C miss classification over %d freshly computed cells (warm windows)", cells),
		"class", "misses", "share%")
	tab.Row("compulsory", c3.Compulsory, comp)
	tab.Row("capacity", c3.Capacity, cap3)
	tab.Row("conflict", c3.Conflict, conf)
	return tab.Render(w)
}

// parseLogLevel maps the -log flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown -log level %q (debug, info, warn, error)", s)
	}
}

// reportPartial prints what an interrupted or partly failed sweep did and
// did not complete, and how to pick the run back up.
func reportPartial(w io.Writer, name string, se *runner.SweepError, ckpt string) {
	s := se.Summary
	fmt.Fprintf(w, "\npartial grid for %s: %d/%d cells done (%d from checkpoint), %d failed, %d not run\n",
		name, s.Done, s.Total, s.FromCheckpoint, s.Failed, s.NotRun)
	const maxShown = 5
	for i, ce := range se.Errs {
		if i == maxShown {
			fmt.Fprintf(w, "  ... and %d more\n", len(se.Errs)-maxShown)
			break
		}
		fmt.Fprintf(w, "  cell %s: %v\n", ce.Key, ce.Err)
	}
	if se.Canceled() {
		if ckpt != "" {
			fmt.Fprintf(w, "interrupted; rerun the same command to resume from %s\n", ckpt)
		} else {
			fmt.Fprintf(w, "interrupted; rerun with -checkpoint FILE to make long sweeps resumable\n")
		}
	}
}

func knownFigure(name string) bool {
	for _, f := range figures {
		if f.name == name {
			return true
		}
	}
	return false
}

func runTable1(r *figRunner, w io.Writer) error {
	tab := textplot.NewTable("", "name", "procs", "refs(K)", "unique(K)", "ifetch%", "load%", "store%")
	for _, s := range r.suite.Table1() {
		tab.Row(s.Name, s.Processes, float64(s.Refs)/1000, float64(s.UniqueAddr)/1000,
			100*float64(s.Ifetches)/float64(s.Refs),
			100*float64(s.Loads)/float64(s.Refs),
			100*float64(s.Stores)/float64(s.Refs))
	}
	return tab.Render(w)
}

func runTable2(r *figRunner, w io.Writer) error {
	tab := textplot.NewTable("(4-word blocks, 180/100/120 ns memory)",
		"cycle ns", "read cycles", "write cycles", "recovery cycles")
	for _, row := range experiments.Table2() {
		tab.Row(row.CycleNs, row.ReadCycles, row.WriteCycles, row.RecoveryCycles)
	}
	return tab.Render(w)
}

func runFig31(r *figRunner, w io.Writer) error {
	f, err := r.suite.RunFigure31(r.ctx, nil)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for i, kb := range f.TotalKB {
		csvRows = append(csvRows, []string{
			strconv.Itoa(kb),
			strconv.FormatFloat(f.LoadMissRatio[i], 'g', 8, 64),
			strconv.FormatFloat(f.IfetchMissRatio[i], 'g', 8, 64),
			strconv.FormatFloat(f.ReadMissRatio[i], 'g', 8, 64),
			strconv.FormatFloat(f.ReadTrafficRatio[i], 'g', 8, 64),
			strconv.FormatFloat(f.WriteTrafficBlocks[i], 'g', 8, 64),
			strconv.FormatFloat(f.WriteTrafficDirty[i], 'g', 8, 64),
		})
	}
	if err := r.writeCSV("fig3-1_miss_traffic",
		[]string{"total_kb", "load_miss", "ifetch_miss", "read_miss", "read_traffic", "write_traffic_blocks", "write_traffic_dirty"},
		csvRows); err != nil {
		return err
	}
	tab := textplot.NewTable("(geometric means over the eight traces)",
		"total KB", "load miss%", "ifetch miss%", "read miss%", "read traffic", "write traffic (blocks)", "write traffic (dirty)")
	for i, kb := range f.TotalKB {
		tab.Row(kb, 100*f.LoadMissRatio[i], 100*f.IfetchMissRatio[i], 100*f.ReadMissRatio[i],
			f.ReadTrafficRatio[i], f.WriteTrafficBlocks[i], f.WriteTrafficDirty[i])
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	if r.charts {
		ch := textplot.NewChart("read miss ratio vs total L1 size")
		ch.LogX = true
		xs := make([]float64, len(f.TotalKB))
		for i, kb := range f.TotalKB {
			xs[i] = float64(kb)
		}
		ch.Add(textplot.Series{Name: "read miss ratio", X: xs, Y: f.ReadMissRatio})
		return ch.Render(w)
	}
	return nil
}

// sampledCycleColumns picks a readable subset of cycle-time columns.
var sampledCycleColumns = []int{20, 32, 40, 56, 68, 80}

func cycleIdx(cycles []int, want int) int {
	for j, c := range cycles {
		if c == want {
			return j
		}
	}
	return -1
}

func runFig32(r *figRunner, w io.Writer) error {
	g, err := r.grid()
	if err != nil {
		return err
	}
	f := experiments.RunFigure32(g)
	return renderGrid(w, "(total cycle count, normalized to the minimum)", f.SizesKB, f.CycleNs, f.Normalized)
}

func runFig33(r *figRunner, w io.Writer) error {
	g, err := r.grid()
	if err != nil {
		return err
	}
	f := experiments.RunFigure33(g)
	h, rows := gridCSV(f.SizesKB, f.CycleNs, f.Relative)
	if err := r.writeCSV("fig3-3_relative_exec", h, rows); err != nil {
		return err
	}
	return renderGrid(w, "(execution time relative to the best design point)", f.SizesKB, f.CycleNs, f.Relative)
}

func renderGrid(w io.Writer, title string, sizes, cycles []int, vals [][]float64) error {
	header := []string{"total KB"}
	var cols []int
	for _, want := range sampledCycleColumns {
		if j := cycleIdx(cycles, want); j >= 0 {
			header = append(header, fmt.Sprintf("%dns", want))
			cols = append(cols, j)
		}
	}
	tab := textplot.NewTable(title, header...)
	for i, kb := range sizes {
		row := []interface{}{kb}
		for _, j := range cols {
			row = append(row, vals[i][j])
		}
		tab.Row(row...)
	}
	return tab.Render(w)
}

func runFig34(r *figRunner, w io.Writer) error {
	g, err := r.grid()
	if err != nil {
		return err
	}
	f, err := experiments.RunFigure34(g)
	if err != nil {
		return err
	}
	h, rows := gridCSV(f.SizesKB[:len(f.SizesKB)-1], f.CycleNs, f.SlopeNsPerDoubling)
	if err := r.writeCSV("fig3-4_slopes_ns_per_doubling", h, rows); err != nil {
		return err
	}
	if err := renderGrid(w, "(slope: ns of cycle time per doubling of cache size)",
		f.SizesKB[:len(f.SizesKB)-1], f.CycleNs, f.SlopeNsPerDoubling); err != nil {
		return err
	}
	// Region classification at the base cycle time, the paper's shaded
	// zones: >10, 7.5-10, 5-7.5, 2.5-5, <2.5 ns per doubling.
	j := cycleIdx(f.CycleNs, 40)
	if j < 0 {
		j = len(f.CycleNs) / 2
	}
	fmt.Fprintf(w, "regions at 40ns: ")
	for i := range f.SlopeNsPerDoubling {
		zone := analysis.ClassifySlope(f.SlopeNsPerDoubling[i][j])
		fmt.Fprintf(w, "%d->%dKB:%s  ", f.SizesKB[i], f.SizesKB[i+1], zone)
	}
	fmt.Fprintln(w)
	return nil
}

func runFig41(r *figRunner, w io.Writer) error {
	f, err := r.suite.RunFigure41(r.ctx, nil, nil)
	if err != nil {
		return err
	}
	header := []string{"total KB"}
	for _, ss := range f.SetSizes {
		header = append(header, fmt.Sprintf("%d-way miss%%", ss))
	}
	header = append(header, "1->2 way spread%")
	tab := textplot.NewTable("(read miss ratio by set size, random replacement)", header...)
	for k, kb := range f.TotalKB {
		row := []interface{}{kb}
		for a := range f.SetSizes {
			row = append(row, 100*f.MissRatio[a][k])
		}
		row = append(row, 100*(f.MissRatio[0][k]-f.MissRatio[1][k])/f.MissRatio[0][k])
		tab.Row(row...)
	}
	return tab.Render(w)
}

func runFig42(r *figRunner, w io.Writer) error {
	f, err := r.figure42()
	if err != nil {
		return err
	}
	best := f.Grids[0].BestExec()
	for _, g := range f.Grids {
		if b := g.BestExec(); b < best {
			best = b
		}
	}
	j40 := cycleIdx(f.Grids[0].CycleNs, 40)
	header := []string{"total KB"}
	for _, ss := range f.SetSizes {
		header = append(header, fmt.Sprintf("%d-way", ss))
	}
	tab := textplot.NewTable("(relative execution time at 40 ns by set size)", header...)
	for i, kb := range f.Grids[0].SizesKB {
		row := []interface{}{kb}
		for a := range f.SetSizes {
			row = append(row, f.Grids[a].ExecNs[i][j40]/best)
		}
		tab.Row(row...)
	}
	return tab.Render(w)
}

func runFig43to45(r *figRunner, w io.Writer) error {
	f, err := r.figure42()
	if err != nil {
		return err
	}
	maps, err := experiments.RunBreakEven(f)
	if err != nil {
		return err
	}
	for _, be := range maps {
		h, rows := gridCSV(be.SizesKB, be.CycleNs, be.NsAvailable)
		if err := r.writeCSV(fmt.Sprintf("fig4-breakeven_set%d", be.SetSize), h, rows); err != nil {
			return err
		}
		title := fmt.Sprintf("(break-even cycle-time degradation in ns, set size %d)", be.SetSize)
		if err := renderGrid(w, title, be.SizesKB, be.CycleNs, be.NsAvailable); err != nil {
			return err
		}
		max := 0.0
		for _, row := range be.NsAvailable {
			for _, v := range row {
				if v > max {
					max = v
				}
			}
		}
		fmt.Fprintf(w, "set size %d: maximum break-even %.1f ns (AS multiplexor: 6 ns data-in, 11 ns select)\n\n",
			be.SetSize, max)
	}
	return nil
}

func runTable3(r *figRunner, w io.Writer) error {
	g, err := r.grid()
	if err != nil {
		return err
	}
	t3, err := experiments.RunTable3(g, nil)
	if err != nil {
		return err
	}
	header := []string{"penalty (cycles)", "cycle ns"}
	for _, kb := range t3.SizesKB {
		header = append(header, fmt.Sprintf("%dKB cyc/ref", kb), fmt.Sprintf("%dKB sizex2", kb))
	}
	tab := textplot.NewTable("(cycles per reference and cycle-time fraction worth one doubling)", header...)
	for rIdx := range t3.PenaltyCycles {
		row := []interface{}{t3.PenaltyCycles[rIdx], t3.CycleNs[rIdx]}
		for c := range t3.SizesKB {
			row = append(row, t3.CPR[rIdx][c], t3.DoublingFrac[rIdx][c])
		}
		tab.Row(row...)
	}
	return tab.Render(w)
}

func runFig51(r *figRunner, w io.Writer) error {
	f, err := r.suite.RunFigure51(r.ctx, 0, nil, 0)
	if err != nil {
		return err
	}
	tab := textplot.NewTable("(64KB I and D caches, 260 ns uniform-latency memory)",
		"block W", "load miss%", "ifetch miss%", "read miss%", "rel exec time")
	for i, bw := range f.BlockWords {
		tab.Row(bw, 100*f.LoadMissRatio[i], 100*f.IfetchMissRatio[i], 100*f.ReadMissRatio[i], f.RelExecTime[i])
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "miss-ratio-optimal block: %d W; performance-optimal block: %d W\n",
		f.MissOptimalW, f.PerfOptimalW)
	return nil
}

func runFig52(r *figRunner, w io.Writer) error {
	f, err := r.suite.RunFigure52(r.ctx, 0, nil, nil, nil, 0)
	if err != nil {
		return err
	}
	header := []string{"latency ns", "rate"}
	for _, bw := range f.BlockWords {
		header = append(header, fmt.Sprintf("%dW", bw))
	}
	tab := textplot.NewTable("(relative execution time by block size and memory parameters)", header...)
	best := f.ExecNs[0][0]
	for _, row := range f.ExecNs {
		for _, v := range row {
			if v < best {
				best = v
			}
		}
	}
	for p, pt := range f.Points {
		row := []interface{}{pt.LatencyNs, pt.Rate.String()}
		for b := range f.BlockWords {
			row = append(row, f.ExecNs[p][b]/best)
		}
		tab.Row(row...)
	}
	return tab.Render(w)
}

func runFig53(r *figRunner, w io.Writer) error {
	f52, err := r.suite.RunFigure52(r.ctx, 0, nil, nil, nil, 0)
	if err != nil {
		return err
	}
	f, err := experiments.RunFigure53(f52)
	if err != nil {
		return err
	}
	tab := textplot.NewTable("(parabola-fitted optimal block size per memory parameterization)",
		"latency ns", "rate", "latency cycles", "product la*tr", "optimal W", "balanced W")
	for p, pt := range f.Points {
		tab.Row(pt.LatencyNs, pt.Rate.String(), pt.LatencyCycles, pt.Product, f.OptimalW[p], f.BalancedW[p])
	}
	return tab.Render(w)
}

func runFig54(r *figRunner, w io.Writer) error {
	f52, err := r.suite.RunFigure52(r.ctx, 0, nil, nil, nil, 0)
	if err != nil {
		return err
	}
	f53, err := experiments.RunFigure53(f52)
	if err != nil {
		return err
	}
	f := experiments.RunFigure54(f53)
	var csvRows [][]string
	for _, series := range f.Series {
		for i := range series.Product {
			csvRows = append(csvRows, []string{
				series.Rate.String(),
				strconv.FormatFloat(series.Product[i], 'g', 8, 64),
				strconv.FormatFloat(series.OptimalW[i], 'g', 8, 64),
			})
		}
	}
	if err := r.writeCSV("fig5-4_optimal_vs_product", []string{"rate", "product", "optimal_w"}, csvRows); err != nil {
		return err
	}
	tab := textplot.NewTable("(optimal block size vs memory speed product, grouped by transfer rate)",
		"rate", "products", "optimal W")
	for _, s := range f.Series {
		tab.Row(s.Rate.String(), joinFloats(s.Product), joinFloats(s.OptimalW))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	if r.charts {
		ch := textplot.NewChart("optimal block size vs la x tr")
		ch.LogX = true
		for _, s := range f.Series {
			ch.Add(textplot.Series{Name: s.Rate.String(), X: s.Product, Y: s.OptimalW})
		}
		return ch.Render(w)
	}
	return nil
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, " ")
}

func runFetchSize(r *figRunner, w io.Writer) error {
	f, err := r.suite.RunFetchSize(r.ctx, 0, 32, nil, 0)
	if err != nil {
		return err
	}
	tab := textplot.NewTable(
		fmt.Sprintf("(%d KB caches with %d-word blocks; varying the fetch size)", f.TotalKB, f.BlockWords),
		"fetch W", "read miss%", "read traffic", "rel exec time")
	for i, fw := range f.FetchWords {
		tab.Row(fw, 100*f.ReadMissRatio[i], f.ReadTraffic[i], f.RelExecTime[i])
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "execution-time-optimal fetch size: %d W\n", f.BestFetchW)
	return nil
}

func runSplitUnified(r *figRunner, w io.Writer) error {
	f, err := r.suite.RunSplitUnified(r.ctx, nil, 0)
	if err != nil {
		return err
	}
	tab := textplot.NewTable("(equal total capacity; the split organization issues couplets in parallel)",
		"total KB", "split miss%", "unified miss%", "split cyc/ref", "unified cyc/ref")
	for k, kb := range f.TotalKB {
		tab.Row(kb, 100*f.SplitMissRatio[k], 100*f.UnifiedMissRatio[k], f.SplitCPR[k], f.UnifiedCPR[k])
	}
	return tab.Render(w)
}

func runMultilevel(r *figRunner, w io.Writer) error {
	m, err := r.suite.RunMultilevel(r.ctx, nil, 0, 0)
	if err != nil {
		return err
	}
	tab := textplot.NewTable(fmt.Sprintf("(second-level cache: %d KB, %d ns cycle)", m.L2KB, m.CycleNs),
		"L1 total KB", "penalty (cycles)", "L2 service (cycles)", "cyc/ref single", "cyc/ref multi", "speedup", "L2 hit%")
	for _, row := range m.Rows {
		tab.Row(row.L1TotalKB, row.L1MissPenaltyCycles, row.L2HitServiceCycles,
			row.CPRSingle, row.CPRMulti, row.ExecSingleNs/row.ExecMultiNs, 100*row.L2HitRatio)
	}
	return tab.Render(w)
}
