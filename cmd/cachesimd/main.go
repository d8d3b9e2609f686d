// Command cachesimd is the long-running sweep service: an HTTP/JSON job
// API over the cache simulator. Clients submit config-grid sweep requests,
// poll status, stream NDJSON progress and fetch results; the daemon shards
// cells across the runner pool, memoizes completed cells by config hash in
// a shared on-disk cache, and records every accepted job in a crash-safe
// write-ahead journal so a kill -9 loses nothing — interrupted jobs resume
// on the next start from the runner checkpoint.
//
// Resilience envelope: token-bucket admission control with load shedding
// (429 + Retry-After under pressure), per-request deadlines propagated
// into every cell, retry with exponential backoff and jitter for transient
// failures, graceful drain on SIGTERM/SIGINT (stop admitting, finish
// in-flight work, flush the ledger, exit 0), /healthz and /readyz.
//
// Bad disks: every persistence surface (journal, cell cache, ledger)
// writes checksummed records and runs a scan-quarantine-repair pass on
// open — corrupt or torn lines move to a `*.quarantine` sidecar, never
// silently poison a replay. Journal appends are read back and verified,
// so even a disk that lies about success cannot lose an acknowledged job.
// Persistent write failures trip a storage circuit breaker into degraded
// mode: in-flight jobs keep computing, new submissions get 503 +
// Retry-After, /readyz says why, and a periodic probe (-probe-interval)
// self-heals when the disk recovers.
//
// Observability: each job's NDJSON event log (/v1/jobs/{id}/events) is its
// timeline, one event per state change and per finished cell with the
// attempts it took; /metrics exposes the full metric catalog in Prometheus
// text format; every request is access-logged with its X-Request-ID, which
// the job status and the journal carry too.
//
// Examples:
//
//	cachesimd -data /var/lib/cachesimd
//	cachesimd -addr 127.0.0.1:7090 -data d -job-timeout 2m
//	curl -s localhost:7090/v1/jobs -d '{"workloads":["mu3"],"sizes_kb":[2,4,8]}'
//	curl -s localhost:7090/metrics
//	curl -s localhost:7090/v1/jobs/<id>/events
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesimd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7090", "HTTP listen address")
		dataDir    = flag.String("data", "cachesimd-data", "data directory (journal, cell cache, ledger)")
		jobWorkers = flag.Int("workers", 0, "concurrent jobs (0 = default)")
		cellW      = flag.Int("cell-workers", 0, "runner pool size per job (0 = default)")
		maxQueue   = flag.Int("queue", 0, "queued-job bound before shedding (0 = default)")
		rate       = flag.Float64("rate", 0, "admission rate, jobs/s (0 = default)")
		burst      = flag.Int("burst", 0, "admission burst (0 = default)")
		retries    = flag.Int("retries", 0, "per-cell retry budget for transient failures (0 = default)")
		cellTO     = flag.Duration("cell-timeout", 0, "per-cell attempt deadline (0 = none)")
		jobTO      = flag.Duration("job-timeout", 0, "default job deadline when the request has none (0 = none)")
		maxJobTO   = flag.Duration("max-job-timeout", 0, "cap on requested job deadlines (0 = none)")
		maxCells   = flag.Int("max-cells", 0, "largest admissible grid (0 = default)")
		probeIv    = flag.Duration("probe-interval", 0, "degraded-mode storage probe cadence, also the Retry-After on degraded refusals (0 = default 2s)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM; in-flight jobs past it are checkpointed for the next start")
		faultsSpec = flag.String("faults", "", "chaos: fault-injection plan for every job's cells (e.g. seed=1,panic=0.02,transient=0.1)")
		profileDir = flag.String("profile", "", "capture per-job CPU+heap pprof profiles into DIR/<job-id>/ (the 16 newest are kept); read them with go tool pprof; overlapping jobs share one process-global CPU profiler, so only the first overlapping job is profiled")
		debugAddr  = flag.String("debug-addr", "", "also serve /debug/vars, /debug/pprof and /metrics on this address")
		verbose    = flag.Bool("v", false, "debug-level logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, level, slog.String("run", obs.RunID()))

	cfg := service.Config{
		DataDir:           *dataDir,
		JobWorkers:        *jobWorkers,
		CellWorkers:       *cellW,
		MaxQueue:          *maxQueue,
		SubmitRate:        *rate,
		SubmitBurst:       *burst,
		Retries:           *retries,
		CellTimeout:       *cellTO,
		DefaultJobTimeout: *jobTO,
		MaxJobTimeout:     *maxJobTO,
		MaxCellsPerJob:    *maxCells,
		ProbeInterval:     *probeIv,
		ProfileDir:        *profileDir,
		Logger:            logger,
		Registry:          obs.NewRegistry(),
	}
	if *faultsSpec != "" {
		plan, err := faultinject.ParsePlan(*faultsSpec)
		if err != nil {
			return err
		}
		cfg.Faults = plan
		logger.Warn("fault injection armed", "spec", *faultsSpec)
	}

	svc, err := service.Open(cfg)
	if err != nil {
		return err
	}
	svc.Start()

	if *debugAddr != "" {
		// The debug server gets the same /metrics as the API address, so
		// operators can firewall the API and still watch.
		dbg, err := obs.Serve(*debugAddr, cfg.Registry,
			obs.Route{Pattern: "GET /metrics", Handler: svc.MetricsHandler()},
		)
		if err != nil {
			return err
		}
		defer dbg.Close()
		logger.Info("debug server listening", "addr", dbg.Addr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: service.NewServer(svc)}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	logger.Info("cachesimd listening", "addr", ln.Addr().String(), "data", *dataDir)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-httpErr:
		svc.Kill()
		return fmt.Errorf("http server: %w", err)
	case <-sigCtx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: stop admitting (readyz already red via Draining),
	// close the listener, finish in-flight jobs, flush and close the
	// journal and cell cache. Jobs still running at the deadline are
	// checkpointed and resume on the next start.
	logger.Info("signal received, draining", "timeout", *drainTO)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := svc.Drain(drainCtx); err != nil {
		return err
	}
	logger.Info("drained cleanly")
	return nil
}
