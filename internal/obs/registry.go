// Package obs is the sweep observability layer: a lightweight metrics
// registry fed by the runner's cell hooks, the one catalog of every fixed
// metric name with its kind and help text, a progress/ETA reporter, a run
// manifest that makes every figure reproducible and every performance
// change diffable, the registry's Prometheus text exposition (/metrics),
// and an optional expvar + pprof debug server.
//
// Everything here is off by default and instruments at cell granularity
// only — nothing in this package runs inside the simulator's inner loop.
// When no registry is attached to a sweep, the runner's hook fields stay
// nil and the hot path pays nothing.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time metric, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timing is a duration histogram backed by stats.Hist (power-of-two
// microsecond buckets), safe for concurrent use.
type Timing struct {
	mu sync.Mutex
	h  stats.Hist
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	t.mu.Lock()
	t.h.Add(d.Microseconds())
	t.mu.Unlock()
}

// Count returns how many durations were recorded.
func (t *Timing) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h.Count
}

// Percentile returns the p-quantile upper bound (p in [0, 1]).
func (t *Timing) Percentile(p float64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.h.Percentile(p)) * time.Microsecond
}

// Max returns the largest recorded duration.
func (t *Timing) Max() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.h.Max) * time.Microsecond
}

// Mean returns the arithmetic mean of the recorded durations.
func (t *Timing) Mean() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.h.Mean()) * time.Microsecond
}

// TimingSnapshot is a JSON-able summary of a Timing, in microseconds.
type TimingSnapshot struct {
	Count  int64 `json:"count"`
	MeanUs int64 `json:"mean_us"`
	P50Us  int64 `json:"p50_us"`
	P95Us  int64 `json:"p95_us"`
	MaxUs  int64 `json:"max_us"`
	// SumUs is the exact total the exposition formats print; the JSON
	// views (manifest, /debug/vars) keep their fixed keys without it.
	SumUs int64 `json:"-"`
}

// Snapshot summarizes the timing under one lock acquisition.
func (t *Timing) Snapshot() TimingSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TimingSnapshot{
		Count:  t.h.Count,
		MeanUs: int64(t.h.Mean()),
		P50Us:  t.h.Percentile(0.50),
		P95Us:  t.h.Percentile(0.95),
		MaxUs:  t.h.Max,
		SumUs:  t.h.Sum,
	}
}

// Registry holds named counters, gauges and timings. Metrics are created on
// first use and live for the registry's lifetime; all methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timings  map[string]*Timing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timings:  make(map[string]*Timing),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timing returns the named timing histogram, creating it on first use.
func (r *Registry) Timing(name string) *Timing {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timings[name]
	if !ok {
		t = &Timing{}
		r.timings[name] = t
	}
	return t
}

// Exported is one metric in a Registry.Export listing: the name, which of
// the three metric families it belongs to, and its current value (counters
// and gauges use Value, timings use Timing). The typed view exists for
// exposition formats that must distinguish monotonic counters from
// point-in-time gauges — Snapshot flattens both to int64.
type Exported struct {
	Name   string
	Kind   Kind
	Value  int64
	Timing TimingSnapshot
}

// Export returns every metric with its family and current value, sorted by
// name so exposition output is deterministic. Metrics of different families
// sharing a name keep the order counter, gauge, timing.
func (r *Registry) Export() []Exported {
	r.mu.Lock()
	out := make([]Exported, 0, len(r.counters)+len(r.gauges)+len(r.timings))
	for n, c := range r.counters {
		out = append(out, Exported{Name: n, Kind: KindCounter, Value: c.Value()})
	}
	for n, g := range r.gauges {
		out = append(out, Exported{Name: n, Kind: KindGauge, Value: g.Value()})
	}
	timings := make(map[string]*Timing, len(r.timings))
	for n, t := range r.timings {
		timings[n] = t
	}
	r.mu.Unlock()
	// Timing snapshots take the timing's own lock; do it outside r.mu.
	for n, t := range timings {
		out = append(out, Exported{Name: n, Kind: KindTiming, Timing: t.Snapshot()})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterValuesWithPrefix returns the current value of every counter whose
// name starts with prefix, keyed by the name with the prefix stripped.
// Empty when no such counter exists.
func (r *Registry) CounterValuesWithPrefix(prefix string) map[string]int64 {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	counters := make([]*Counter, 0, len(r.counters))
	for n, c := range r.counters {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
			counters = append(counters, c)
		}
	}
	r.mu.Unlock()
	out := make(map[string]int64, len(names))
	for i, n := range names {
		out[strings.TrimPrefix(n, prefix)] = counters[i].Value()
	}
	return out
}

// Snapshot returns a JSON-able view of every metric: counters and gauges as
// int64, timings as TimingSnapshot. The view is a copy; mutating it does
// not affect the registry.
func (r *Registry) Snapshot() map[string]any {
	exp := r.Export()
	out := make(map[string]any, len(exp))
	for _, e := range exp {
		if e.Kind == KindTiming {
			out[e.Name] = e.Timing
		} else {
			out[e.Name] = e.Value
		}
	}
	return out
}
