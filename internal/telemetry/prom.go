package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// PromPrefix namespaces every exposed series, so a shared Prometheus
// doesn't collide cachesimd's queue_depth with anyone else's.
const PromPrefix = "cachesim_"

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), hand-rolled — the whole format is HELP/TYPE
// comments plus `name{labels} value` lines, which does not justify a
// dependency. Counters and gauges become one series each; timings become
// summaries in microseconds: two quantile series plus _sum and _count.
// Output is sorted by metric name, so scrapes diff cleanly.
func WritePrometheus(w io.Writer, reg *obs.Registry) error {
	bw := bufio.NewWriter(w)
	for _, m := range reg.Export() {
		name := PromPrefix + m.Name
		help := "(undeclared metric)"
		if d, ok := obs.Lookup(m.Name); ok {
			help = d.Help
		}
		switch m.Kind {
		case obs.KindCounter, obs.KindGauge:
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(help))
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, m.Kind)
			fmt.Fprintf(bw, "%s %d\n", name, m.Value)
		case obs.KindTiming:
			name += "_us"
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(help))
			fmt.Fprintf(bw, "# TYPE %s summary\n", name)
			fmt.Fprintf(bw, "%s{quantile=\"0.5\"} %d\n", name, m.Timing.P50Us)
			fmt.Fprintf(bw, "%s{quantile=\"0.95\"} %d\n", name, m.Timing.P95Us)
			fmt.Fprintf(bw, "%s_sum %d\n", name, m.Timing.SumUs)
			fmt.Fprintf(bw, "%s_count %d\n", name, m.Timing.Count)
		}
	}
	return bw.Flush()
}

// escapeHelp applies the exposition format's HELP escaping (backslash and
// newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// MetricsHandler serves WritePrometheus over HTTP. sync, when non-nil,
// runs before each render — the hook services use to refresh
// scrape-time gauges (tokens available, uptime).
func MetricsHandler(reg *obs.Registry, sync func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sync != nil {
			sync()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg) //nolint:errcheck // client disconnect mid-body
	})
}
