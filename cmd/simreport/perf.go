// The perf and flame subcommands: the hot-path side of the report. `perf`
// reads the profile fingerprints that `-profile` runs ledger next to CPI
// and latency, rendering, diffing and gating where the cycles and the
// allocations went; `flame` renders a captured pprof file as a top-down
// text call tree, the terminal stand-in for a flame graph.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ledger"
	"repro/internal/perfobs"
	"repro/internal/textplot"
)

// perfRuns filters the ledger down to records carrying a perf fingerprint,
// so "latest"/"prev" selectors mean "latest profiled run" and interleaved
// unprofiled runs do not break a diff.
func perfRuns(recs []ledger.Record) []ledger.Record {
	var out []ledger.Record
	for _, r := range recs {
		if r.Perf != nil {
			out = append(out, r)
		}
	}
	return out
}

// cmdPerf shows, diffs or gates ledgered perf fingerprints. Returns the
// process exit code (0 pass, 1 gate regression) or an error (exit 2).
func cmdPerf(args []string, stdout, stderr io.Writer) (int, error) {
	fs, dir := newFlagSet("perf", stderr)
	doDiff := fs.Bool("diff", false, "diff two profiled runs' fingerprints (selectors default to prev latest)")
	doGate := fs.Bool("gate", false, "gate the newest profiled run against the previous one; exit 1 on regression")
	config := fs.String("config", "", "config hash to gate (default: the newest profiled run's)")
	gateCPU := fs.Bool("cpu", false, "gate CPU shares too (heap-only by default: CPU shares are sampled, alloc shares are near-deterministic)")
	tol := fs.Float64("tolerance", 0, "share growth that flags, in percentage points (default 5)")
	noiseMult := fs.Float64("noise-mult", 0, "noise multiplier for thresholds (default 3)")
	minShare := fs.Float64("min-share", 0, "share a new-to-the-profile function must reach to flag, in points (default 10)")
	asJSON := fs.Bool("json", false, "emit the diff as JSON (with -diff)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	recs, err := readLedger(*dir, stderr)
	if err != nil {
		return 2, err
	}
	profiled := perfRuns(recs)
	if len(profiled) == 0 {
		return 2, fmt.Errorf("no profiled runs in the ledger (run with -profile DIR to capture fingerprints)")
	}
	th := perfobs.Thresholds{Tolerance: *tol, NoiseMult: *noiseMult, MinSharePts: *minShare}
	switch {
	case *doGate:
		return perfGate(stdout, profiled, *config, *gateCPU, th)
	case *doDiff:
		oldSel, newSel := "prev", "latest"
		switch fs.NArg() {
		case 0:
		case 2:
			oldSel, newSel = fs.Arg(0), fs.Arg(1)
		default:
			return 2, fmt.Errorf("perf -diff takes zero or two run selectors")
		}
		oldRec, err := ledger.FindRun(profiled, oldSel)
		if err != nil {
			return 2, fmt.Errorf("%w (among profiled runs)", err)
		}
		newRec, err := ledger.FindRun(profiled, newSel)
		if err != nil {
			return 2, fmt.Errorf("%w (among profiled runs)", err)
		}
		d := perfobs.DiffFingerprints(oldRec.Perf, newRec.Perf, perfHistory(profiled, newRec), th)
		if *asJSON {
			enc, merr := json.MarshalIndent(d, "", "  ")
			if merr != nil {
				return 2, merr
			}
			enc = append(enc, '\n')
			_, werr := stdout.Write(enc)
			return 0, werr
		}
		return 0, renderPerfDiff(stdout, oldRec.RunID, newRec.RunID, d, *gateCPU)
	default:
		sel := "latest"
		if fs.NArg() > 0 {
			sel = fs.Arg(0)
		}
		rec, err := ledger.FindRun(profiled, sel)
		if err != nil {
			return 2, fmt.Errorf("%w (among profiled runs)", err)
		}
		return 0, renderPerfShow(stdout, rec)
	}
}

// perfHistory collects fingerprints from the new run's configuration
// history, oldest first, excluding the run under test — the noise evidence
// DiffFingerprints widens thresholds with.
func perfHistory(profiled []ledger.Record, newRec ledger.Record) []*perfobs.Fingerprint {
	var out []*perfobs.Fingerprint
	for _, r := range ledger.ByConfig(profiled, newRec.ConfigHash) {
		if r.RunID != newRec.RunID {
			out = append(out, r.Perf)
		}
	}
	return out
}

func renderPerfShow(w io.Writer, rec ledger.Record) error {
	fp := rec.Perf
	fmt.Fprintf(w, "run      %s (%s)\n", rec.RunID, rec.Tool)
	fmt.Fprintf(w, "config   %s\n", shortHash(rec.ConfigHash))
	if fp.CPUTotalNs > 0 {
		fmt.Fprintf(w, "cpu      %.1f ms sampled over %d samples\n", float64(fp.CPUTotalNs)/1e6, fp.CPUSamples)
	}
	if fp.AllocBytes > 0 {
		fmt.Fprintf(w, "alloc    %s total\n", fmtBytes(fp.AllocBytes))
	}
	if err := renderShares(w, "cpu self-time by function", "time ms", fp.CPU, func(v int64) string {
		return fmt.Sprintf("%.1f", float64(v)/1e6)
	}); err != nil {
		return err
	}
	if err := renderShares(w, "allocation by function", "bytes", fp.Heap, fmtBytes); err != nil {
		return err
	}
	if len(fp.PhaseAllocs) > 0 {
		fmt.Fprintln(w)
		tab := textplot.NewTable("allocation by phase", "phase", "bytes", "objects", "gc cycles")
		for _, pa := range fp.PhaseAllocs {
			tab.Row(pa.Name, fmtBytes(pa.AllocBytes), pa.AllocObjects, pa.GCCycles)
		}
		return tab.Render(w)
	}
	return nil
}

// renderShares prints one fingerprint dimension as a share table with bars.
func renderShares(w io.Writer, title, valueHeader string, shares []perfobs.FuncShare, fmtVal func(int64) string) error {
	if len(shares) == 0 {
		return nil
	}
	fmt.Fprintln(w)
	var max float64
	for _, s := range shares {
		if s.SharePct > max {
			max = s.SharePct
		}
	}
	tab := textplot.NewTable(title, "function", valueHeader, "share%", "")
	for _, s := range shares {
		tab.Row(s.Func, fmtVal(s.Value), fmt.Sprintf("%.1f", s.SharePct), textplot.Bar(s.SharePct, max, 20))
	}
	return tab.Render(w)
}

func renderPerfDiff(w io.Writer, oldRun, newRun string, d perfobs.Diff, gateCPU bool) error {
	fmt.Fprintf(w, "perf diff %s → %s\n", oldRun, newRun)
	if d.AllocBytesPct != 0 {
		fmt.Fprintf(w, "alloc total %+.1f%%\n", d.AllocBytesPct)
	}
	for _, dim := range []struct {
		name   string
		deltas []perfobs.FuncDelta
	}{{"heap (allocation share)", d.Heap}, {"cpu (self-time share)", d.CPU}} {
		if len(dim.deltas) == 0 {
			continue
		}
		fmt.Fprintln(w)
		tab := textplot.NewTable(dim.name, "function", "old%", "new%", "delta pts", "threshold", "verdict")
		for _, fd := range dim.deltas {
			tab.Row(fd.Func, fmt.Sprintf("%.1f", fd.OldPct), fmt.Sprintf("%.1f", fd.NewPct),
				fmt.Sprintf("%+.1f", fd.DeltaPts), fmt.Sprintf("%.1f", fd.ThresholdPts), perfVerdict(fd))
		}
		if err := tab.Render(w); err != nil {
			return err
		}
	}
	if regs := d.Regressions(gateCPU); len(regs) > 0 {
		fmt.Fprintf(w, "\n%d hot-path regression(s):\n", len(regs))
		for _, fd := range regs {
			fmt.Fprintf(w, "  %s\n", fd)
		}
	}
	return nil
}

func perfVerdict(fd perfobs.FuncDelta) string {
	switch {
	case fd.Regression && fd.New:
		return "NEW HOT"
	case fd.Regression:
		return "REGRESSED"
	case fd.New:
		return "new"
	case -fd.DeltaPts > fd.ThresholdPts:
		return "improved"
	default:
		return "~"
	}
}

// perfGate compares the newest profiled run of a configuration against the
// previous profiled run of the same configuration, with the earlier history
// as noise evidence — `simreport gate` for hot-path composition.
func perfGate(stdout io.Writer, profiled []ledger.Record, config string, gateCPU bool, th perfobs.Thresholds) (int, error) {
	hash, err := resolveConfig(profiled, config)
	if err != nil {
		return 2, err
	}
	if hash == "" {
		hash = profiled[len(profiled)-1].ConfigHash
	}
	hist := ledger.ByConfig(profiled, hash)
	if len(hist) == 0 {
		return 2, fmt.Errorf("no profiled runs of config %q", shortHash(hash))
	}
	newRec := hist[len(hist)-1]
	fmt.Fprintf(stdout, "perf gate: config %s, run %s", shortHash(hash), newRec.RunID)
	if len(hist) < 2 {
		fmt.Fprintf(stdout, "\nperf gate: skipped — first profiled run of this configuration, nothing to compare\n")
		return 0, nil
	}
	oldRec := hist[len(hist)-2]
	fmt.Fprintf(stdout, " vs %s (%d prior profiled run(s))\n", oldRec.RunID, len(hist)-1)
	history := perfHistory(profiled, newRec)
	d := perfobs.DiffFingerprints(oldRec.Perf, newRec.Perf, history, th)
	if err := renderPerfDiff(stdout, oldRec.RunID, newRec.RunID, d, gateCPU); err != nil {
		return 2, err
	}
	if regs := d.Regressions(gateCPU); len(regs) > 0 {
		names := make([]string, len(regs))
		for i, fd := range regs {
			names[i] = fd.Func
		}
		fmt.Fprintf(stdout, "\nperf gate: FAIL — %s\n", strings.Join(names, ", "))
		return 1, nil
	}
	fmt.Fprintf(stdout, "\nperf gate: ok — hot-path composition within thresholds\n")
	return 0, nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// flameNode is one frame in the top-down call tree; value is cumulative
// (this frame and everything under it), flat the portion sampled with this
// frame as the leaf.
type flameNode struct {
	name     string
	value    int64
	flat     int64
	children map[string]*flameNode
}

func (n *flameNode) child(name string) *flameNode {
	if n.children == nil {
		n.children = make(map[string]*flameNode)
	}
	c, ok := n.children[name]
	if !ok {
		c = &flameNode{name: name}
		n.children[name] = c
	}
	return c
}

// cmdFlame renders a pprof profile file as a top-down text call tree.
func cmdFlame(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simreport flame", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sampleType := fs.String("type", "", `sample type to render ("cpu", "alloc_space", ...; default: the profile's cost dimension)`)
	minPct := fs.Float64("min", 0.5, "hide subtrees below this share of the total, percent")
	depth := fs.Int("depth", 32, "maximum tree depth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("flame takes one profile file (a cpu.pprof or heap.pprof from a -profile run)")
	}
	p, err := perfobs.ParseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	return renderFlame(stdout, p, *sampleType, *minPct, *depth)
}

func renderFlame(w io.Writer, p *perfobs.Profile, sampleType string, minPct float64, maxDepth int) error {
	// Resolve the value column the same way the digest does, so `flame` and
	// `perf` agree on what "cost" means for a given profile kind.
	d, err := perfobs.DigestProfile(p, sampleType, 1)
	if err != nil {
		return err
	}
	root := &flameNode{name: "root"}
	col := -1
	for i, st := range p.SampleTypes {
		if st.Type == d.Type {
			col = i
		}
	}
	for _, s := range p.Samples {
		v := s.Values[col]
		if v == 0 {
			continue
		}
		root.value += v
		node := root
		// Stacks are leaf-first and location lines innermost-first; walk both
		// reversed for a root-down tree.
		for i := len(s.LocationIDs) - 1; i >= 0; i-- {
			lines := p.Locations[s.LocationIDs[i]].Lines
			for j := len(lines) - 1; j >= 0; j-- {
				node = node.child(p.Functions[lines[j].FunctionID].Name)
				node.value += v
			}
		}
		node.flat += v
	}
	if root.value == 0 {
		return fmt.Errorf("profile has no %s samples", d.Type)
	}
	fmt.Fprintf(w, "%s flame, total %s (%d samples; cum%% · flat%% · function)\n",
		d.Type, flameTotal(d), d.Samples)
	var render func(n *flameNode, indent int)
	render = func(n *flameNode, indent int) {
		share := 100 * float64(n.value) / float64(root.value)
		if share < minPct || indent > maxDepth {
			return
		}
		flatShare := 100 * float64(n.flat) / float64(root.value)
		fmt.Fprintf(w, "%5.1f%% %5.1f%% %s%s %s\n", share, flatShare,
			strings.Repeat("  ", indent), n.name, textplot.Bar(share, 100, 20))
		for _, c := range sortedChildren(n) {
			render(c, indent+1)
		}
	}
	for _, c := range sortedChildren(root) {
		render(c, 0)
	}
	return nil
}

func sortedChildren(n *flameNode) []*flameNode {
	kids := make([]*flameNode, 0, len(n.children))
	for _, c := range n.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].value != kids[j].value {
			return kids[i].value > kids[j].value
		}
		return kids[i].name < kids[j].name
	})
	return kids
}

func flameTotal(d *perfobs.Digest) string {
	switch d.Unit {
	case "nanoseconds":
		return fmt.Sprintf("%.1f ms", float64(d.Total)/1e6)
	case "bytes":
		return fmtBytes(d.Total)
	default:
		return fmt.Sprintf("%d %s", d.Total, d.Unit)
	}
}
