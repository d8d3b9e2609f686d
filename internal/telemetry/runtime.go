package telemetry

import (
	"repro/internal/obs"
	"repro/internal/perfobs"
)

// SyncRuntimeMetrics refreshes the runtime_* gauges from a fresh
// runtime/metrics snapshot, so /metrics and the dashboard show where the
// process itself spends memory and pause time. Services call it from their
// /metrics sync hook, so the series cost one read per scrape and nothing
// between scrapes.
func SyncRuntimeMetrics(reg *obs.Registry) {
	st := perfobs.ReadRuntimeStats()
	reg.Gauge(obs.MRuntimeHeapLive).Set(int64(st.HeapLiveBytes))
	reg.Gauge(obs.MRuntimeHeapGoal).Set(int64(st.HeapGoalBytes))
	reg.Gauge(obs.MRuntimeGCCycles).Set(int64(st.GCCycles))
	reg.Gauge(obs.MRuntimeGCPauseP50).Set(st.GCPauseP50.Microseconds())
	reg.Gauge(obs.MRuntimeGCPauseMax).Set(st.GCPauseMax.Microseconds())
	reg.Gauge(obs.MRuntimeSchedLatP95).Set(st.SchedLatencyP95.Microseconds())
	reg.Gauge(obs.MRuntimeAllocBytes).Set(int64(st.AllocBytes))
	reg.Gauge(obs.MRuntimeAllocObjects).Set(int64(st.AllocObjects))
}
