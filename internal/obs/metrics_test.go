package obs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// metricsMarkdown renders the METRICS.md reference table from the obs
// catalog.
func metricsMarkdown() string {
	var b strings.Builder
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("<!-- Generated from the internal/obs Catalog by `go test ./internal/obs -run TestMetricsMarkdown -update`.\n")
	b.WriteString("     Do not edit by hand: `make metricslint` fails when this file drifts. -->\n\n")
	b.WriteString("Every fixed-name metric the sweep stack registers, exposed in Prometheus\n")
	b.WriteString("text format at `/metrics` with the `" + PromPrefix + "` prefix. Timings are\n")
	b.WriteString("rendered as summaries in microseconds (`_us` suffix, quantiles 0.5/0.95\n")
	b.WriteString("plus `_sum`/`_count`).\n\n")
	b.WriteString("| Metric | Kind | Prometheus series | Help |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, d := range Catalog {
		series := PromPrefix + d.Name
		if d.Kind == KindTiming {
			series = PromPrefix + d.Name + `_us{quantile="..."}`
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n", d.Name, d.Kind, series, d.Help)
	}
	return b.String()
}

// TestMetricsMarkdown pins the checked-in METRICS.md, at the repository
// root, to the obs catalog; -update rewrites it.
func TestMetricsMarkdown(t *testing.T) {
	md := metricsMarkdown()
	path := filepath.Join("..", "..", "METRICS.md")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != md {
		t.Fatalf("METRICS.md drifted from the obs catalog; regenerate with `go test ./internal/obs -run TestMetricsMarkdown -update`")
	}
}
