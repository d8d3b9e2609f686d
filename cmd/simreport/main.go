// Command simreport reads a run ledger (written by `cachesim -ledger DIR`
// or `paperfigs -ledger DIR`, see internal/ledger) and turns per-run
// records into cross-run answers: what ran, how a metric trends, what
// changed between two runs, and whether the newest run regressed.
//
//	simreport list -ledger DIR              # every ledgered run, newest last
//	simreport show -ledger DIR [RUN]        # one run in full, with trends
//	simreport diff -ledger DIR [OLD NEW]    # two runs metric by metric
//	simreport gate -ledger DIR [-tolerance 5]  # exit 1 on regression
//
// RUN selectors are "latest", "prev", a run id, or a unique run-id prefix.
// `gate` compares the newest run of a configuration against its baseline
// (previous run, or `-baseline median`) with noise-aware thresholds: a
// metric must move in its bad direction by more than
// max(tolerance, noise-mult × observed run-to-run noise) to fail. Exit
// codes: 0 pass, 1 regression, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/ledger"
	"repro/internal/perfobs"
	"repro/internal/textplot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: simreport <command> [flags] [args]

commands:
  list   list ledgered runs (one line each, newest last)
  show   render one run in full, with trend sparklines for its config
  diff   compare two runs metric by metric (-json for machine output)
  gate   fail (exit 1) when the newest run regressed beyond tolerance

common flags:
  -ledger DIR   ledger directory or .ndjson file (default ".")

run `+"`simreport <command> -h`"+` for per-command flags.
`)
}

// run dispatches the subcommand and returns the process exit code: 0 ok,
// 1 gate regression, 2 error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(rest, stdout, stderr)
	case "show":
		err = cmdShow(rest, stdout, stderr)
	case "diff":
		err = cmdDiff(rest, stdout, stderr)
	case "gate":
		code, gerr := cmdGate(rest, stdout, stderr)
		if gerr == nil {
			return code
		}
		err = gerr
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "simreport: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintln(stderr, "simreport:", err)
		return 2
	}
	return 0
}

// newFlagSet builds a subcommand flag set with the shared -ledger flag.
func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("simreport "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("ledger", ".", "ledger directory or .ndjson file")
	return fs, dir
}

// readLedger loads the ledger, reporting skipped newer-schema records once
// on stderr (they are data, just not ours to interpret) and corrupt
// records the checksum scan rejected. simreport only warns — it never
// repairs, because it may be reading a ledger that live runs are still
// appending to; repair belongs to the ledger's owner (e.g. the sweep
// service at startup).
func readLedger(dir string, stderr io.Writer) ([]ledger.Record, error) {
	recs, stats, err := ledger.Read(ledger.Path(dir))
	if err != nil {
		return nil, err
	}
	if stats.SkippedNewer > 0 {
		fmt.Fprintf(stderr, "simreport: %d record(s) from a newer schema skipped\n", stats.SkippedNewer)
	}
	if stats.Corrupt > 0 {
		fmt.Fprintf(stderr, "simreport: warning: %d corrupt record(s) skipped; the ledger owner will quarantine them on its next repair\n", stats.Corrupt)
	}
	return recs, nil
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func cmdList(args []string, stdout, stderr io.Writer) error {
	fs, dir := newFlagSet("list", stderr)
	config := fs.String("config", "", "only runs with this config hash (or unique prefix)")
	last := fs.Int("n", 0, "only the last N runs (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, err := readLedger(*dir, stderr)
	if err != nil {
		return err
	}
	if *config != "" {
		recs = filterConfig(recs, *config)
		if len(recs) == 0 {
			return fmt.Errorf("no runs match config %q", *config)
		}
	}
	if *last > 0 && len(recs) > *last {
		recs = recs[len(recs)-*last:]
	}
	tab := textplot.NewTable("", "time (UTC)", "run", "tool", "config", "cells", "refs", "cycles", "cpi", "wall ms", "outcome")
	for _, r := range recs {
		cells := fmt.Sprintf("%d/%d", r.Cells.Done+r.Cells.Replayed, r.Cells.Planned)
		tab.Row(r.Time.UTC().Format("2006-01-02 15:04:05"), r.RunID, r.Tool, shortHash(r.ConfigHash),
			cells, r.Refs, r.TotalCycles, r.CPI, r.WallMs, r.Outcome)
	}
	return tab.Render(stdout)
}

// filterConfig keeps records whose config hash matches exactly or by
// prefix.
func filterConfig(recs []ledger.Record, sel string) []ledger.Record {
	var out []ledger.Record
	for _, r := range recs {
		if r.ConfigHash == sel || strings.HasPrefix(r.ConfigHash, sel) {
			out = append(out, r)
		}
	}
	return out
}

// resolveConfig expands a config-hash prefix to the one full hash it
// names; an exact match always wins, an ambiguous prefix is an error.
func resolveConfig(recs []ledger.Record, sel string) (string, error) {
	if sel == "" {
		return "", nil
	}
	matches := map[string]bool{}
	for _, r := range recs {
		if r.ConfigHash == sel {
			return sel, nil
		}
		if strings.HasPrefix(r.ConfigHash, sel) {
			matches[r.ConfigHash] = true
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("no runs match config %q", sel)
	case 1:
		for h := range matches {
			return h, nil
		}
	}
	full := make([]string, 0, len(matches))
	for h := range matches {
		full = append(full, shortHash(h))
	}
	sort.Strings(full)
	return "", fmt.Errorf("config prefix %q is ambiguous: %s", sel, strings.Join(full, ", "))
}

func cmdShow(args []string, stdout, stderr io.Writer) error {
	fs, dir := newFlagSet("show", stderr)
	trendN := fs.Int("trend", 8, "trend sparklines over the last N runs of the same config")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sel := "latest"
	if fs.NArg() > 0 {
		sel = fs.Arg(0)
	}
	recs, err := readLedger(*dir, stderr)
	if err != nil {
		return err
	}
	rec, err := ledger.FindRun(recs, sel)
	if err != nil {
		return err
	}
	return renderShow(stdout, rec, recs, *trendN)
}

// trendMetrics are the metrics show renders as sparklines, with their
// value formatting.
var trendMetrics = []struct {
	name   string
	format string
}{
	{"total_cycles", "%.0f"},
	{"cpi", "%.4f"},
	{"refs_per_sec", "%.0f"},
}

func renderShow(w io.Writer, rec ledger.Record, all []ledger.Record, trendN int) error {
	fmt.Fprintf(w, "run      %s (%s)\n", rec.RunID, rec.Tool)
	fmt.Fprintf(w, "time     %s\n", rec.Time.UTC().Format(time.RFC3339))
	fmt.Fprintf(w, "config   %s\n", rec.ConfigHash)
	fmt.Fprintf(w, "outcome  %s\n", rec.Outcome)
	fmt.Fprintf(w, "env      %s\n", rec.Env)
	fmt.Fprintf(w, "cells    planned %d  done %d  replayed %d  failed %d\n",
		rec.Cells.Planned, rec.Cells.Done, rec.Cells.Replayed, rec.Cells.Failed)
	if rec.Refs > 0 {
		fmt.Fprintf(w, "refs     %d (%.0f refs/s)\n", rec.Refs, rec.RefsPerSec)
	}
	if rec.TotalCycles > 0 {
		fmt.Fprintf(w, "cycles   %d (cpi %.4f)\n", rec.TotalCycles, rec.CPI)
	}
	if rec.LatencyP50Us > 0 || rec.LatencyP95Us > 0 {
		fmt.Fprintf(w, "latency  cell p50 %d us  p95 %d us\n", rec.LatencyP50Us, rec.LatencyP95Us)
	}
	fmt.Fprintf(w, "wall     %d ms\n", rec.WallMs)
	if len(rec.Warmup) > 0 {
		traces := make([]string, 0, len(rec.Warmup))
		for tr := range rec.Warmup {
			traces = append(traces, tr)
		}
		sort.Strings(traces)
		parts := make([]string, len(traces))
		for i, tr := range traces {
			parts[i] = fmt.Sprintf("%s @ ref %d", tr, rec.Warmup[tr])
		}
		fmt.Fprintf(w, "warmup   %s\n", strings.Join(parts, ", "))
	}
	if len(rec.Attribution) > 0 {
		renderAttribution(w, rec)
	}
	if rec.Explain != nil {
		comp, cap3, conf := rec.Explain.Total3C().SharePct()
		fmt.Fprintf(w, "\n3C       compulsory %.1f%%  capacity %.1f%%  conflict %.1f%% of %d misses\n",
			comp, cap3, conf, rec.Explain.TotalMisses())
	}
	renderTrend(w, rec, all, trendN)
	return nil
}

// renderAttribution prints the record's cycle-attribution rollup, largest
// component first, with a share bar per component.
func renderAttribution(w io.Writer, rec ledger.Record) {
	names := make([]string, 0, len(rec.Attribution))
	var total, max int64
	for n, v := range rec.Attribution {
		names = append(names, n)
		total += v
		if v > max {
			max = v
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if rec.Attribution[names[i]] != rec.Attribution[names[j]] {
			return rec.Attribution[names[i]] > rec.Attribution[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "\ncycle attribution (warm window)\n")
	for _, n := range names {
		v := rec.Attribution[n]
		fmt.Fprintf(w, "  %-20s %12d  %5.1f%%  %s\n",
			n, v, 100*float64(v)/float64(total), textplot.Bar(float64(v), float64(max), 20))
	}
}

// renderTrend prints one sparkline per metric over the shown run's
// configuration history up to and including it.
func renderTrend(w io.Writer, rec ledger.Record, all []ledger.Record, trendN int) {
	var hist []ledger.Record
	for _, r := range all {
		if r.ConfigHash == rec.ConfigHash {
			hist = append(hist, r)
			if r.RunID == rec.RunID {
				break
			}
		}
	}
	if trendN > 0 && len(hist) > trendN {
		hist = hist[len(hist)-trendN:]
	}
	if len(hist) < 2 {
		return
	}
	fmt.Fprintf(w, "\ntrend over %d runs of this config (oldest → newest)\n", len(hist))
	for _, tm := range trendMetrics {
		def, vals, ok := metricSeries(tm.name, hist)
		if !ok {
			continue
		}
		_ = def
		first := fmt.Sprintf(tm.format, vals[0])
		last := fmt.Sprintf(tm.format, vals[len(vals)-1])
		fmt.Fprintf(w, "  %-13s %s  %s → %s\n", tm.name, textplot.Sparkline(vals), first, last)
	}
}

// metricSeries extracts one metric across the history; ok only when every
// record measured it (a sparkline with holes misleads more than it helps).
func metricSeries(name string, hist []ledger.Record) (ledger.MetricDef, []float64, bool) {
	for _, def := range ledger.Metrics {
		if def.Name != name {
			continue
		}
		vals := make([]float64, 0, len(hist))
		for _, r := range hist {
			v, ok := def.Get(r)
			if !ok {
				return def, nil, false
			}
			vals = append(vals, v)
		}
		return def, vals, true
	}
	return ledger.MetricDef{}, nil, false
}

func cmdDiff(args []string, stdout, stderr io.Writer) error {
	fs, dir := newFlagSet("diff", stderr)
	asJSON := fs.Bool("json", false, "emit the diff as JSON")
	tol := fs.Float64("tolerance", 0, "regression tolerance in percent (default 5)")
	noiseMult := fs.Float64("noise-mult", 0, "noise multiplier for thresholds (default 3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	oldSel, newSel := "prev", "latest"
	switch fs.NArg() {
	case 0:
	case 2:
		oldSel, newSel = fs.Arg(0), fs.Arg(1)
	default:
		return fmt.Errorf("diff takes zero or two run selectors")
	}
	recs, err := readLedger(*dir, stderr)
	if err != nil {
		return err
	}
	oldRec, err := ledger.FindRun(recs, oldSel)
	if err != nil {
		return err
	}
	newRec, err := ledger.FindRun(recs, newSel)
	if err != nil {
		return err
	}
	// Noise comes from the new run's configuration history, excluding the
	// run under test itself.
	var history []ledger.Record
	for _, r := range ledger.ByConfig(recs, newRec.ConfigHash) {
		if r.RunID != newRec.RunID {
			history = append(history, r)
		}
	}
	d := ledger.ComputeDiff(oldRec, newRec, history, perfobs.Thresholds{Tolerance: *tol, NoiseMult: *noiseMult})
	if *asJSON {
		enc, merr := json.MarshalIndent(d, "", "  ")
		if merr != nil {
			return merr
		}
		enc = append(enc, '\n')
		_, werr := stdout.Write(enc)
		return werr
	}
	return renderDiff(stdout, d)
}

// verdict labels a delta for terminal diff output: regressions shout,
// beyond-threshold improvements are worth noticing, the rest is quiet.
func verdict(d ledger.Delta, higherIsWorse bool) string {
	if d.Regression {
		return "REGRESSED"
	}
	worse := d.Pct
	if !higherIsWorse {
		worse = -d.Pct
	}
	if -worse > d.ThresholdPct {
		return "improved"
	}
	return "~"
}

func renderDiff(w io.Writer, d ledger.Diff) error {
	fmt.Fprintf(w, "diff %s → %s\n", d.OldRun, d.NewRun)
	if !d.ConfigMatch {
		fmt.Fprintf(w, "note: the runs have different config hashes — deltas compare different experiments\n")
	}
	dirs := map[string]bool{}
	for _, def := range ledger.Metrics {
		dirs[def.Name] = def.HigherIsWorse
	}
	tab := textplot.NewTable("", "metric", "old", "new", "delta%", "noise%", "threshold%", "verdict")
	for _, m := range d.Metrics {
		tab.Row(m.Name, m.Old, m.New, fmt.Sprintf("%+.2f", m.Pct),
			fmt.Sprintf("%.2f", m.NoisePct), fmt.Sprintf("%.2f", m.ThresholdPct), verdict(m, dirs[m.Name]))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	if len(d.Attribution) > 0 {
		fmt.Fprintln(w)
		at := textplot.NewTable("cycle attribution", "component", "old", "new", "delta%")
		for _, a := range d.Attribution {
			at.Row(a.Name, a.Old, a.New, fmt.Sprintf("%+.2f", a.Pct))
		}
		if err := at.Render(w); err != nil {
			return err
		}
	}
	if len(d.Explain) > 0 {
		fmt.Fprintln(w)
		et := textplot.NewTable("3C miss composition (share of misses; explains, never gates)",
			"class", "old%", "new%", "delta pts", "threshold", "verdict")
		for _, e := range d.Explain {
			v := "~"
			if e.Regression {
				v = "shifted"
			}
			et.Row(e.Func, fmt.Sprintf("%.1f", e.OldPct), fmt.Sprintf("%.1f", e.NewPct),
				fmt.Sprintf("%+.1f", e.DeltaPts), fmt.Sprintf("%.1f", e.ThresholdPts), v)
		}
		if err := et.Render(w); err != nil {
			return err
		}
	}
	if regs := d.Regressions(); len(regs) > 0 {
		names := make([]string, len(regs))
		for i, r := range regs {
			names[i] = r.Name
		}
		fmt.Fprintf(w, "\n%d metric(s) regressed beyond threshold: %s\n", len(regs), strings.Join(names, ", "))
	}
	return nil
}

// cmdGate returns the process exit code (0 pass, 1 regression) or an error
// (exit 2).
func cmdGate(args []string, stdout, stderr io.Writer) (int, error) {
	fs, dir := newFlagSet("gate", stderr)
	config := fs.String("config", "", "config hash to gate (default: the newest run's)")
	metrics := fs.String("metrics", "", "comma-separated metrics to gate (default: the deterministic set)")
	tol := fs.Float64("tolerance", 0, "regression tolerance in percent (default 5)")
	noiseMult := fs.Float64("noise-mult", 0, "noise multiplier for thresholds (default 3)")
	baseline := fs.String("baseline", "prev", "baseline: prev or median")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	recs, err := readLedger(*dir, stderr)
	if err != nil {
		return 2, err
	}
	opts := ledger.GateOptions{
		Thresholds: perfobs.Thresholds{Tolerance: *tol, NoiseMult: *noiseMult},
		Baseline:   *baseline,
	}
	if *metrics != "" {
		for _, m := range strings.Split(*metrics, ",") {
			opts.Metrics = append(opts.Metrics, strings.TrimSpace(m))
		}
	}
	hash, err := resolveConfig(recs, *config)
	if err != nil {
		return 2, err
	}
	res, err := ledger.Gate(recs, hash, opts)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "gate: config %s, run %s vs %s (%d prior run(s))\n",
		shortHash(res.ConfigHash), res.NewRun, res.Baseline, res.History)
	if res.Skipped {
		fmt.Fprintf(stdout, "gate: skipped — first ledgered run of this configuration, nothing to compare\n")
		return 0, nil
	}
	dirs := map[string]bool{}
	for _, def := range ledger.Metrics {
		dirs[def.Name] = def.HigherIsWorse
	}
	tab := textplot.NewTable("", "metric", "baseline", "new", "delta%", "threshold%", "verdict")
	for _, m := range res.Deltas {
		tab.Row(m.Name, m.Old, m.New, fmt.Sprintf("%+.2f", m.Pct),
			fmt.Sprintf("%.2f", m.ThresholdPct), verdict(m, dirs[m.Name]))
	}
	if err := tab.Render(stdout); err != nil {
		return 2, err
	}
	if len(res.Failures) > 0 {
		names := make([]string, len(res.Failures))
		for i, f := range res.Failures {
			names[i] = fmt.Sprintf("%s %+.2f%%", f.Name, f.Pct)
		}
		fmt.Fprintf(stdout, "gate: FAIL — %s\n", strings.Join(names, ", "))
		return 1, nil
	}
	fmt.Fprintf(stdout, "gate: ok — no watched metric regressed beyond threshold\n")
	return 0, nil
}
