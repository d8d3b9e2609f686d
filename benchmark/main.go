// Command cachebench is the repository's benchmark. It runs one of three
// workloads and prints, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics:
//
//	figures-cold  every driver cmd/paperfigs runs, cold, in fresh processes
//	explore-warm  a design-space query session over memoized profiles
//	service-grid  closed-loop HTTP clients against an in-process cachesimd
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// repeats the workload with spans around the calls into each layer and adds
// the per-layer probes. See README.md in this directory.
//
// Build and run it through run.sh, from the repository root:
//
//	bash benchmark/run.sh --workload explore-warm --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// Seeds: devSeed is the one the benchmark was tuned on; claims of a gain
// must also hold on heldOutSeed.
const (
	devSeed     = 1
	heldOutSeed = 7919
)

// metricDef declares one metric and its unit. BENCHMARK.json lists the same
// names; the package test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
}

func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.generate_ms", "ms"},
		{"workload.gen_ns_per_ref", "ns"},
		{"cache.access_ns.dm", "ns"},
		{"cache.access_ns.2way", "ns"},
		{"cache.access_ns.8way", "ns"},
		{"cache.access_ns.subblock", "ns"},
		{"engine.build_ns_per_ref.dm", "ns"},
		{"engine.build_ns_per_ref.2way", "ns"},
		{"engine.build_ns_per_ref.8way", "ns"},
		{"engine.events_per_kref.dm", "count"},
		{"engine.events_per_kref.2way", "count"},
		{"engine.events_per_kref.8way", "count"},
		{"engine.profile_kb", "KB"},
		{"engine.replay_ns_per_event", "ns"},
		{"mem.quantize_ns", "ns"},
		{"writebuf.op_ns", "ns"},
		{"system.ns_per_ref.base", "ns"},
		{"system.ns_per_ref.multilevel", "ns"},
		{"runner.cells", "count"},
		{"runner.noop_cell_us", "us"},
	}
	for _, d := range drivers {
		defs = append(defs,
			metricDef{"experiments." + d.name + ".cold_ms", "ms"},
			metricDef{"experiments." + d.name + ".warm_ms", "ms"})
	}
	return append(defs,
		metricDef{"experiments.build_ms", "ms"},
		metricDef{"experiments.unaccounted_ms", "ms"},
		metricDef{"service.submit_ms", "ms"},
		metricDef{"service.queue_ms", "ms"},
		metricDef{"service.run_ms", "ms"},
		metricDef{"service.result_ms", "ms"},
		metricDef{"service.memo_hit_ratio", "ratio"},
		metricDef{"service.shed", "count"},
		metricDef{"service.retried", "count"},
		metricDef{"durable.journal_ack_us", "us"},
		metricDef{"unaccounted_pct", "%"},
		metricDef{"trace_overhead_pct", "%"},
	)
}

// warmUpTime is how long each process spins its workers before timing
// anything (see warmUp).
const warmUpTime = 2 * time.Second

// runOpts is what every workload needs from the command line.
type runOpts struct {
	seed    int64
	seconds int
	scale   float64
	workers int
	// tmp holds per-run scratch directories (service data dirs, journals).
	tmp string
}

// units is how many ten-second measurement units --seconds asks for; every
// workload sizes its fixed work list by it.
func (o runOpts) units() int {
	if u := o.seconds / 10; u > 1 {
		return u
	}
	return 1
}

// phase is the outcome of one workload execution.
type phase struct {
	setupS             []float64
	wallS, cpuS, rssMB float64
	opP50, opP90       float64 // ms
	opsDone            int     // operations that succeeded
	opsPerS            float64 // opsDone over the timed phases' summed wall time
	attempted, failed  int
	problems           []string
	layers             map[string]float64
	unaccountedPct     float64
	sp                 *spans
}

// fail records failed operations or checks.
func (p *phase) fail(msgs ...string) {
	p.failed += len(msgs)
	p.problems = append(p.problems, msgs...)
}

// check counts one correctness check, failing it when ok is false.
func (p *phase) check(ok bool, msg string) {
	p.attempted++
	if !ok {
		p.fail(msg)
	}
}

// benchWorkload is one workload; BENCHMARK.json says why each exists.
type benchWorkload struct {
	name string
	run  func(o runOpts, traced bool) (*phase, error)
}

var workloads = []benchWorkload{
	{"figures-cold", runFigures},
	{"explore-warm", runExplore},
	{"service-grid", runGrid},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: figures-cold, explore-warm or service-grid")
		seed    = flag.Int64("seed", devSeed, "workload seed (point order, job mix)")
		seconds = flag.Int("seconds", 20, "measurement length; the work list scales with it in 10 s units")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		pass    = flag.String("pass", "", "internal: run one figures pass in this process and print it")
	)
	flag.Parse()
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	// Every run uses the paper's scale, at which the digests are pinned, and
	// nproc workers, callers and connections.
	o := runOpts{seed: *seed, seconds: *seconds, scale: experiments.DefaultScale,
		workers: runtime.NumCPU(), tmp: filepath.Join(out, "tmp")}

	if *pass == "figures" {
		warmUp(o.workers, warmUpTime)
		p, err := runFiguresPass(context.Background(), o.scale, o.workers, *trace == 1, golden.Figures)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(p)
	}

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q (figures-cold, explore-warm, service-grid)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	env := newEnv(w.name, o, *trace)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	warmUp(o.workers, warmUpTime)

	var (
		ph      *phase
		metrics map[string]float64
		defs    []metricDef
		err     error
	)
	if *trace == 1 {
		defs = perLayer()
		ph, metrics, err = runTraced(w, o)
	} else {
		defs = endToEnd
		ph, err = w.run(o, false)
		if err == nil {
			metrics = endToEndMetrics(ph)
		}
	}
	if err != nil {
		return err
	}
	if ph.failed > ph.attempted {
		ph.failed = ph.attempted
	}
	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for i, p := range ph.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... and %d more problems\n", len(ph.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "problem:", p)
	}
	if err := saveRecord(out, env, res, ph); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func endToEndMetrics(ph *phase) map[string]float64 {
	rss := ph.rssMB
	if rss == 0 {
		rss = peakRSSMB()
	}
	return map[string]float64{
		"setup_s":     median(ph.setupS),
		"wall_s":      ph.wallS,
		"cpu_s":       ph.cpuS,
		"peak_rss_mb": rss,
		"op_p50_ms":   ph.opP50,
		"op_p90_ms":   ph.opP90,
		"ops_per_s":   ph.opsPerS,
	}
}

// runTraced runs the workload untraced and then traced (the wall-time
// difference is the tracing overhead), then gathers every layer's metrics:
// the experiments and service layers from this workload's traced phase when
// it exercises them and from a traced probe otherwise, and the rest from
// direct probes of each layer's public functions.
func runTraced(w *benchWorkload, o runOpts) (*phase, map[string]float64, error) {
	plain, err := w.run(o, false)
	if err != nil {
		return nil, nil, err
	}
	tr, err := w.run(o, true)
	if err != nil {
		return nil, nil, err
	}
	total := &phase{sp: tr.sp}
	layers := map[string]float64{}
	absorb := func(ph *phase) {
		total.attempted += ph.attempted
		total.fail(ph.problems...)
		for k, v := range ph.layers {
			layers[k] = v
		}
	}
	absorb(plain)
	absorb(tr)
	layers["trace_overhead_pct"] = 100 * (tr.wallS - plain.wallS) / plain.wallS
	layers["unaccounted_pct"] = tr.unaccountedPct
	for name, probe := range map[string]func() (*phase, error){
		"figures-cold": func() (*phase, error) { return runFigures(o, true) },
		"service-grid": func() (*phase, error) { return gridSession(o, true, probeJobs, "") },
	} {
		if name == w.name {
			continue // measured by the traced phase itself
		}
		ph, err := probe()
		if err != nil {
			return nil, nil, err
		}
		absorb(ph)
	}
	return total, layers, probeLayers(o, layers)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// env records what two results must share before they are compared.
type env struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Trace       int     `json:"trace"`
	Scale       float64 `json:"scale"`
	Nproc       int     `json:"nproc"`
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	GitDescribe string  `json:"git_describe"`
	DevSeed     int64   `json:"dev_seed"`
	HeldOutSeed int64   `json:"held_out_seed"`
}

func newEnv(name string, o runOpts, trace int) env {
	desc := os.Getenv("BENCH_GIT_DESCRIBE")
	if desc == "" {
		desc = "unknown"
	}
	return env{
		Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: trace, Scale: o.scale,
		Nproc: runtime.NumCPU(), Workers: o.workers, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), GitDescribe: desc,
		DevSeed: devSeed, HeldOutSeed: heldOutSeed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// saveRecord writes the run's full record (environment, result, problems)
// and, for traced runs, its spans under dir.
func saveRecord(dir string, e env, res result, ph *phase) error {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", e.Workload, e.Seed, e.Trace)
	rec := struct {
		Env      env       `json:"env"`
		Result   result    `json:"result"`
		SetupS   []float64 `json:"setup_samples_s"`
		Problems []string  `json:"problems,omitempty"`
	}{e, res, ph.setupS, ph.problems}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results", base+".json"), b, 0o644); err != nil {
		return err
	}
	return ph.sp.write(filepath.Join(dir, "results", base+".spans.ndjson"))
}
