package obs

import (
	"repro/internal/perfobs"
)

// SyncRuntimeMetrics refreshes the runtime_* gauges from a fresh
// runtime/metrics snapshot, so /metrics shows where the process itself
// spends memory and pause time. Services call it from their
// /metrics sync hook, so the series cost one read per scrape and nothing
// between scrapes.
func SyncRuntimeMetrics(reg *Registry) {
	st := perfobs.ReadRuntimeStats()
	reg.Gauge(MRuntimeHeapLive).Set(int64(st.HeapLiveBytes))
	reg.Gauge(MRuntimeHeapGoal).Set(int64(st.HeapGoalBytes))
	reg.Gauge(MRuntimeGCCycles).Set(int64(st.GCCycles))
	reg.Gauge(MRuntimeGCPauseP50).Set(st.GCPauseP50.Microseconds())
	reg.Gauge(MRuntimeGCPauseMax).Set(st.GCPauseMax.Microseconds())
	reg.Gauge(MRuntimeSchedLatP95).Set(st.SchedLatencyP95.Microseconds())
	reg.Gauge(MRuntimeAllocBytes).Set(int64(st.AllocBytes))
	reg.Gauge(MRuntimeAllocObjects).Set(int64(st.AllocObjects))
}
