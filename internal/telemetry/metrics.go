package telemetry

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/obs"
)

// Service-layer metric names owned by this package. The runner's cell
// metrics (obs.MCells*) live in internal/obs; both families share one
// obs.Registry and one Defs table below.
const (
	// MJobsSubmitted counts accepted (journaled) job submissions.
	MJobsSubmitted = "jobs_submitted"
	// MJobsDone counts jobs that finished with every cell complete.
	MJobsDone = "jobs_done"
	// MJobsFailed counts terminally failed jobs.
	MJobsFailed = "jobs_failed"
	// MJobsCanceled counts client-canceled jobs.
	MJobsCanceled = "jobs_canceled"
	// MJobsShed counts load-shed submissions across all reasons.
	MJobsShed = "jobs_shed"
	// MJobsRunning gauges jobs currently on a job worker.
	MJobsRunning = "jobs_running"
	// MQueueDepth gauges jobs queued but not yet running.
	MQueueDepth = "queue_depth"
	// MTokensAvailable gauges admission tokens left in the submit bucket,
	// refreshed at scrape time.
	MTokensAvailable = "tokens_available"
	// MShedQueue counts 429s from the queue-depth limit.
	MShedQueue = "shed_queue"
	// MShedRate counts 429s from the token-bucket rate limit.
	MShedRate = "shed_rate"
	// MShedDraining counts 503s from submissions during drain.
	MShedDraining = "shed_draining"
	// MHTTPRequests counts API requests served.
	MHTTPRequests = "http_requests"
	// MHTTPErrors counts API requests answered with status >= 400.
	MHTTPErrors = "http_errors"
	// MHTTPRequestLatency times API request handling wall clock.
	MHTTPRequestLatency = "http_request_latency"
	// MJournalAppendLatency times whole journal appends (write + retries +
	// fsync).
	MJournalAppendLatency = "journal_append_latency"
	// MJournalFsyncLatency times the fsync component of journal appends.
	MJournalFsyncLatency = "journal_fsync_latency"
	// MCellAttempts counts runner attempts across all cells, retries
	// included.
	MCellAttempts = "cell_attempts"
	// MTraceSpans counts spans recorded into finished job traces.
	MTraceSpans = "trace_spans"
	// MUptimeSeconds gauges seconds since the service opened, refreshed at
	// scrape time.
	MUptimeSeconds = "uptime_seconds"
	// MShedClient counts 429s from per-client quota buckets.
	MShedClient = "shed_client"
	// MShedDegraded counts 503s from submissions while storage is degraded.
	MShedDegraded = "shed_degraded"
	// MQuotaClients gauges per-client quota buckets currently tracked.
	MQuotaClients = "quota_clients"
	// MJournalQuarantined counts journal records quarantined by the
	// open-time checksum scan.
	MJournalQuarantined = "journal_quarantined"
	// MCellsQuarantined counts cell-cache records quarantined by the
	// open-time checksum scan.
	MCellsQuarantined = "cells_quarantined"
	// MLedgerQuarantined counts ledger records quarantined by the
	// open-time repair.
	MLedgerQuarantined = "ledger_quarantined"
	// MDegraded gauges degraded mode: 1 while the storage circuit breaker
	// is open, 0 otherwise.
	MDegraded = "degraded"
	// MBreakerTrips counts storage circuit breaker trips.
	MBreakerTrips = "breaker_trips"
	// MStorageProbes counts degraded-mode recovery probes attempted.
	MStorageProbes = "storage_probes"
)

// MetricDef declares one metric: its registry name, family and help text.
// Defs is the single source of truth the /metrics exposition, METRICS.md
// and `make metricslint` all read; a metric missing here is a lint failure.
type MetricDef struct {
	Name string
	Kind string // "counter", "gauge" or "timing"
	Help string
}

// Defs lists every fixed-name metric the sweep stack registers. The only
// metrics outside this table are the dynamic per-component attribution
// counters under obs.MAttribPrefix, whose names come from simtrace
// component enums at runtime.
var Defs = []MetricDef{
	// Runner cell metrics (internal/obs).
	{obs.MCellsPlanned, "counter", "Cells submitted to sweeps so far."},
	{obs.MCellsDone, "counter", "Successful cells completed by the runner, cells_memo_hits included."},
	{obs.MCellsReplayed, "counter", "Cells served memoized from the checkpoint cache."},
	{obs.MCellsMemoHits, "counter", "Cells served from an experiments suite's in-process cell memo (no simulation ran)."},
	{obs.MProfilesBuilt, "counter", "Behavioural passes an experiments suite ran to fill its profile cache."},
	{obs.MCellsFailed, "counter", "Cells whose final attempt failed."},
	{obs.MCellsPanicked, "counter", "Failed cells whose final attempt panicked."},
	{obs.MCellsRetried, "counter", "Cells that needed more than one attempt."},
	{obs.MCellsInflight, "gauge", "Cells currently on a runner worker."},
	{obs.MAttribCells, "counter", "Cells whose cycle attribution fed the attrib_ counters."},
	{obs.MExplainCells, "counter", "Simulations whose explain report fed the explain_ counters."},
	{obs.MExplainCompulsory, "counter", "Misses classified compulsory (first touch) across explained simulations."},
	{obs.MExplainCapacity, "counter", "Misses classified capacity (lost even fully associative) across explained simulations."},
	{obs.MExplainConflict, "counter", "Misses classified conflict (set-mapping collisions) across explained simulations."},
	{obs.MSimRefs, "counter", "Simulated references (warm window) across cells."},
	{obs.MCellLatency, "timing", "Per-cell wall-clock latency."},
	// Service job lifecycle (internal/service).
	{MJobsSubmitted, "counter", "Accepted (journaled) job submissions."},
	{MJobsDone, "counter", "Jobs finished with every cell complete."},
	{MJobsFailed, "counter", "Terminally failed jobs."},
	{MJobsCanceled, "counter", "Client-canceled jobs."},
	{MJobsShed, "counter", "Load-shed submissions, all reasons."},
	{MJobsRunning, "gauge", "Jobs currently on a job worker."},
	{MQueueDepth, "gauge", "Jobs queued but not yet running."},
	// Admission and shedding detail.
	{MTokensAvailable, "gauge", "Admission tokens left in the submit bucket."},
	{MShedQueue, "counter", "Submissions shed on the queue-depth limit (429)."},
	{MShedRate, "counter", "Submissions shed on the rate limit (429)."},
	{MShedDraining, "counter", "Submissions refused while draining (503)."},
	{MShedClient, "counter", "Submissions shed on a per-client quota (429)."},
	{MShedDegraded, "counter", "Submissions refused while storage is degraded (503)."},
	{MQuotaClients, "gauge", "Per-client quota buckets currently tracked."},
	// HTTP API.
	{MHTTPRequests, "counter", "API requests served."},
	{MHTTPErrors, "counter", "API requests answered with status >= 400."},
	{MHTTPRequestLatency, "timing", "API request handling latency."},
	// Journal durability.
	{MJournalAppendLatency, "timing", "Journal append latency (write + retries + fsync)."},
	{MJournalFsyncLatency, "timing", "Journal fsync latency."},
	// Storage integrity and the circuit breaker.
	{MJournalQuarantined, "counter", "Journal records quarantined by the open-time checksum scan."},
	{MCellsQuarantined, "counter", "Cell-cache records quarantined by the open-time checksum scan."},
	{MLedgerQuarantined, "counter", "Ledger records quarantined by the open-time repair."},
	{MDegraded, "gauge", "1 while the storage circuit breaker is open, 0 otherwise."},
	{MBreakerTrips, "counter", "Storage circuit breaker trips."},
	{MStorageProbes, "counter", "Degraded-mode recovery probes attempted."},
	// Runner attempts and tracing.
	{MCellAttempts, "counter", "Runner attempts across all cells, retries included."},
	{MTraceSpans, "counter", "Spans recorded into finished job traces."},
	{MUptimeSeconds, "gauge", "Seconds since the service opened."},
	// Go runtime cost signals, refreshed from runtime/metrics at scrape
	// time by SyncRuntimeMetrics.
	{MRuntimeHeapLive, "gauge", "Live heap object bytes."},
	{MRuntimeHeapGoal, "gauge", "GC heap-size goal in bytes."},
	{MRuntimeGCCycles, "gauge", "Completed GC cycles since process start."},
	{MRuntimeGCPauseP50, "gauge", "Median stop-the-world GC pause since start, microseconds."},
	{MRuntimeGCPauseMax, "gauge", "Worst stop-the-world GC pause since start, microseconds."},
	{MRuntimeSchedLatP95, "gauge", "p95 goroutine scheduling latency since start, microseconds."},
	{MRuntimeAllocBytes, "gauge", "Cumulative heap bytes allocated since process start."},
	{MRuntimeAllocObjects, "gauge", "Cumulative heap objects allocated since process start."},
}

// DefFor looks a definition up by registry name.
func DefFor(name string) (MetricDef, bool) {
	for _, d := range Defs {
		if d.Name == name {
			return d, true
		}
	}
	return MetricDef{}, false
}

// Register creates every Defs metric in the registry, so a fresh process
// exposes the full series catalog at zero rather than growing it as code
// paths first fire.
func Register(reg *obs.Registry) {
	for _, d := range Defs {
		switch d.Kind {
		case "counter":
			reg.Counter(d.Name)
		case "gauge":
			reg.Gauge(d.Name)
		case "timing":
			reg.Timing(d.Name)
		}
	}
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// LintDefs validates the Defs table: snake_case names, a known kind,
// non-empty help, and each name declared exactly once. This is the
// `make metricslint` gate's core.
func LintDefs() error {
	seen := make(map[string]bool, len(Defs))
	var errs []string
	for _, d := range Defs {
		switch {
		case !snakeCase.MatchString(d.Name):
			errs = append(errs, fmt.Sprintf("metric %q is not snake_case", d.Name))
		case seen[d.Name]:
			errs = append(errs, fmt.Sprintf("metric %q declared more than once", d.Name))
		case d.Kind != "counter" && d.Kind != "gauge" && d.Kind != "timing":
			errs = append(errs, fmt.Sprintf("metric %q has unknown kind %q", d.Name, d.Kind))
		case strings.TrimSpace(d.Help) == "":
			errs = append(errs, fmt.Sprintf("metric %q has no help text", d.Name))
		}
		seen[d.Name] = true
	}
	if len(errs) > 0 {
		return fmt.Errorf("telemetry: %s", strings.Join(errs, "; "))
	}
	return nil
}

// MetricsMarkdown renders the METRICS.md reference table from Defs. The
// file is generated and checked in; `make metricslint` fails on drift.
func MetricsMarkdown() string {
	var b strings.Builder
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("<!-- Generated from internal/telemetry Defs by `go run ./cmd/metricslint -w`.\n")
	b.WriteString("     Do not edit by hand: `make metricslint` fails when this file drifts. -->\n\n")
	b.WriteString("Every fixed-name metric the sweep stack registers, exposed in Prometheus\n")
	b.WriteString("text format at `/metrics` with the `" + PromPrefix + "` prefix. Timings are\n")
	b.WriteString("rendered as summaries in microseconds (`_us` suffix, quantiles 0.5/0.95\n")
	b.WriteString("plus `_sum`/`_count`). The dynamic per-component cycle-attribution\n")
	b.WriteString("counters (`attrib_<component>`) are the one family outside this table;\n")
	b.WriteString("their names come from simtrace component enums at runtime.\n\n")
	b.WriteString("| Metric | Kind | Prometheus series | Help |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, d := range Defs {
		series := PromPrefix + d.Name
		if d.Kind == "timing" {
			series = PromPrefix + d.Name + `_us{quantile="..."}`
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", d.Name, d.Kind, series, d.Help)
	}
	return b.String()
}
