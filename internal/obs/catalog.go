package obs

// Kind is a metric's family: how a Registry stores it and how exposition
// formats render it.
type Kind string

// The three metric families.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindTiming  Kind = "timing"
)

// Metric names, one per Catalog row; Catalog holds each one's kind and
// help text. The runner hooks (see RunnerHooks) feed the cell metrics,
// internal/service the service ones, and SyncRuntimeMetrics the runtime_*
// gauges.
const (
	// MCellsPlanned grows as figures start, so ETA estimates cover only
	// the work announced yet.
	MCellsPlanned = "cells_planned"
	// MCellsDone includes MCellsMemoHits: the runner completed those
	// cells too.
	MCellsDone     = "cells_done"
	MCellsReplayed = "cells_replayed"
	MCellsMemoHits = "cells_memo_hits"
	// MProfilesBuilt grows once per (organization × trace) a Suite
	// needed, however many cells share the profile.
	MProfilesBuilt = "profiles_built"
	// MProfileCacheBytes grows as profiles join a Suite's profile
	// cache; the cache keeps them for the Suite's life.
	MProfileCacheBytes = "profile_cache_bytes"
	MCellsFailed       = "cells_failed"
	MCellsPanicked     = "cells_panicked"
	MCellsRetried      = "cells_retried"
	MCellsInflight     = "cells_inflight"
	MSimRefs           = "sim_refs"
	MCellLatency       = "cell_latency"

	MJobsSubmitted        = "jobs_submitted"
	MJobsDone             = "jobs_done"
	MJobsFailed           = "jobs_failed"
	MJobsCanceled         = "jobs_canceled"
	MJobsShed             = "jobs_shed"
	MJobsRunning          = "jobs_running"
	MQueueDepth           = "queue_depth"
	MTokensAvailable      = "tokens_available"
	MShedQueue            = "shed_queue"
	MShedRate             = "shed_rate"
	MShedDraining         = "shed_draining"
	MShedDegraded         = "shed_degraded"
	MHTTPRequests         = "http_requests"
	MHTTPErrors           = "http_errors"
	MHTTPRequestLatency   = "http_request_latency"
	MJournalAppendLatency = "journal_append_latency"
	MJournalFsyncLatency  = "journal_fsync_latency"
	MJournalQuarantined   = "journal_quarantined"
	MCellsQuarantined     = "cells_quarantined"
	MLedgerQuarantined    = "ledger_quarantined"
	MDegraded             = "degraded"
	MBreakerTrips         = "breaker_trips"
	MStorageProbes        = "storage_probes"
	MCellAttempts         = "cell_attempts"
	MUptimeSeconds        = "uptime_seconds"

	// The runtime_* cumulative totals are gauges, not counters: the
	// registry value is a snapshot of the runtime's own monotonic count.
	MRuntimeHeapLive     = "runtime_heap_live_bytes"
	MRuntimeHeapGoal     = "runtime_heap_goal_bytes"
	MRuntimeGCCycles     = "runtime_gc_cycles"
	MRuntimeGCPauseP50   = "runtime_gc_pause_p50_us"
	MRuntimeGCPauseMax   = "runtime_gc_pause_max_us"
	MRuntimeSchedLatP95  = "runtime_sched_latency_p95_us"
	MRuntimeAllocBytes   = "runtime_alloc_bytes"
	MRuntimeAllocObjects = "runtime_alloc_objects"
)

// Def is one Catalog row.
type Def struct {
	Name string
	Kind Kind
	Help string
}

// Catalog lists every fixed-name metric the sweep stack registers, in the
// order the METRICS.md reference prints them.
var Catalog = []Def{
	// Runner cell metrics.
	{MCellsPlanned, KindCounter, "Cells submitted to sweeps so far."},
	{MCellsDone, KindCounter, "Successful cells completed by the runner, cells_memo_hits included."},
	{MCellsReplayed, KindCounter, "Cells served memoized from the checkpoint cache."},
	{MCellsMemoHits, KindCounter, "Cells served from an experiments suite's in-process cell memo (no simulation ran)."},
	{MProfilesBuilt, KindCounter, "Behavioural passes an experiments suite ran to fill its profile cache."},
	{MProfileCacheBytes, KindGauge, "Bytes the profiles in experiments suites' profile caches keep resident."},
	{MCellsFailed, KindCounter, "Cells whose final attempt failed."},
	{MCellsPanicked, KindCounter, "Failed cells whose final attempt panicked."},
	{MCellsRetried, KindCounter, "Cells that needed more than one attempt."},
	{MCellsInflight, KindGauge, "Cells currently on a runner worker."},
	{MSimRefs, KindCounter, "Simulated references (warm window) across cells."},
	{MCellLatency, KindTiming, "Per-cell wall-clock latency."},
	// Service job lifecycle.
	{MJobsSubmitted, KindCounter, "Accepted (journaled) job submissions."},
	{MJobsDone, KindCounter, "Jobs finished with every cell complete."},
	{MJobsFailed, KindCounter, "Terminally failed jobs."},
	{MJobsCanceled, KindCounter, "Client-canceled jobs."},
	{MJobsShed, KindCounter, "Load-shed submissions, all reasons."},
	{MJobsRunning, KindGauge, "Jobs currently on a job worker."},
	{MQueueDepth, KindGauge, "Jobs queued but not yet running."},
	// Admission and shedding detail; tokens_available is refreshed at
	// scrape time.
	{MTokensAvailable, KindGauge, "Admission tokens left in the submit bucket."},
	{MShedQueue, KindCounter, "Submissions shed on the queue-depth limit (429)."},
	{MShedRate, KindCounter, "Submissions shed on the rate limit (429)."},
	{MShedDraining, KindCounter, "Submissions refused while draining (503)."},
	{MShedDegraded, KindCounter, "Submissions refused while storage is degraded (503)."},
	// HTTP API.
	{MHTTPRequests, KindCounter, "API requests served."},
	{MHTTPErrors, KindCounter, "API requests answered with status >= 400."},
	{MHTTPRequestLatency, KindTiming, "API request handling latency."},
	// Journal durability.
	{MJournalAppendLatency, KindTiming, "Journal append latency (write + retries + fsync)."},
	{MJournalFsyncLatency, KindTiming, "Journal fsync latency."},
	// Storage integrity and the circuit breaker.
	{MJournalQuarantined, KindCounter, "Journal records quarantined by the open-time checksum scan."},
	{MCellsQuarantined, KindCounter, "Cell-cache records quarantined by the open-time checksum scan."},
	{MLedgerQuarantined, KindCounter, "Ledger records quarantined by the open-time repair."},
	{MDegraded, KindGauge, "1 while the storage circuit breaker is open, 0 otherwise."},
	{MBreakerTrips, KindCounter, "Storage circuit breaker trips."},
	{MStorageProbes, KindCounter, "Degraded-mode recovery probes attempted."},
	// Runner attempts, counted as each cell ends; uptime_seconds is
	// refreshed at scrape time.
	{MCellAttempts, KindCounter, "Runner attempts across all cells, retries included, counted when each cell ends."},
	{MUptimeSeconds, KindGauge, "Seconds since the service opened."},
	// Go runtime cost signals, refreshed from runtime/metrics at scrape
	// time.
	{MRuntimeHeapLive, KindGauge, "Live heap object bytes."},
	{MRuntimeHeapGoal, KindGauge, "GC heap-size goal in bytes."},
	{MRuntimeGCCycles, KindGauge, "Completed GC cycles since process start."},
	{MRuntimeGCPauseP50, KindGauge, "Median stop-the-world GC pause since start, microseconds."},
	{MRuntimeGCPauseMax, KindGauge, "Worst stop-the-world GC pause since start, microseconds."},
	{MRuntimeSchedLatP95, KindGauge, "p95 goroutine scheduling latency since start, microseconds."},
	{MRuntimeAllocBytes, KindGauge, "Cumulative heap bytes allocated since process start."},
	{MRuntimeAllocObjects, KindGauge, "Cumulative heap objects allocated since process start."},
}

// Lookup returns the Catalog row of a registry name.
func Lookup(name string) (Def, bool) {
	for _, d := range Catalog {
		if d.Name == name {
			return d, true
		}
	}
	return Def{}, false
}

// RegisterCatalog creates every Catalog metric in r, so a fresh process
// exposes the full series catalog at zero rather than growing it as code
// paths first fire.
func (r *Registry) RegisterCatalog() {
	for _, d := range Catalog {
		switch d.Kind {
		case KindCounter:
			r.Counter(d.Name)
		case KindGauge:
			r.Gauge(d.Name)
		case KindTiming:
			r.Timing(d.Name)
		}
	}
}
