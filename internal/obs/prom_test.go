package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPrometheusRoundTrip: everything WritePrometheus emits parses back
// under the strict parser with the values intact — the format contract the
// acceptance criteria pin.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCatalog()
	reg.Counter(MJobsSubmitted).Add(7)
	reg.Gauge(MQueueDepth).Set(3)
	tm := reg.Timing(MHTTPRequestLatency)
	for i := 0; i < 10; i++ {
		tm.Observe(time.Duration(i+1) * time.Millisecond)
	}
	// A non-integer mean (1.5 µs): _sum must be the exact total, not the
	// truncated mean times the count.
	fsync := reg.Timing(MJournalFsyncLatency)
	fsync.Observe(time.Microsecond)
	fsync.Observe(2 * time.Microsecond)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	series, err := ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, buf.String())
	}
	if got := series[PromPrefix+MJobsSubmitted]; got != 7 {
		t.Errorf("jobs_submitted = %v, want 7", got)
	}
	if got := series[PromPrefix+MQueueDepth]; got != 3 {
		t.Errorf("queue_depth = %v, want 3", got)
	}
	lat := PromPrefix + MHTTPRequestLatency + "_us"
	if got := series[lat+"_count"]; got != 10 {
		t.Errorf("latency count = %v, want 10", got)
	}
	if got := series[lat+"_sum"]; got != 55000 {
		t.Errorf("latency sum = %v, want 55000", got)
	}
	if got := series[PromPrefix+MJournalFsyncLatency+"_us_sum"]; got != 3 {
		t.Errorf("fsync latency sum = %v, want 3", got)
	}
	if series[lat+`{quantile="0.5"}`] <= 0 || series[lat+`{quantile="0.95"}`] <= 0 {
		t.Error("latency quantiles missing or zero")
	}
	// The registered catalog alone must clear the ≥20 distinct series bar.
	if len(series) < 20 {
		t.Errorf("only %d series exposed, want >= 20", len(series))
	}
	// Every fixed-name series carries help text, not the undeclared marker.
	if strings.Contains(buf.String(), "(undeclared metric)") {
		t.Error("a registered metric is missing its catalog entry")
	}
}

// TestParsePromTextRejectsMalformed: the parser is strict enough that the
// round-trip test actually proves well-formedness.
func TestParsePromTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "foo 1\n",
		"duplicate series":    "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"repeated TYPE":       "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"unknown type":        "# TYPE foo sparkline\nfoo 1\n",
		"bad value":           "# TYPE foo counter\nfoo one\n",
		"bad label pair":      "# TYPE foo counter\nfoo{9bad=\"x\"} 1\n",
		"malformed sample":    "# TYPE foo counter\nfoo{unclosed 1\n",
	}
	for name, in := range cases {
		if _, err := ParsePromText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
	ok := "# HELP foo Things.\n# TYPE foo counter\nfoo 1\n# TYPE bar summary\nbar{quantile=\"0.5\"} 2\nbar_sum 4\nbar_count 2\n"
	series, err := ParsePromText(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if len(series) != 4 {
		t.Errorf("parsed %d series, want 4", len(series))
	}
}

// TestMetricsHandler: correct content type, sync hook runs before render.
func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCatalog()
	synced := false
	h := MetricsHandler(reg, func() {
		synced = true
		reg.Gauge(MUptimeSeconds).Set(42)
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !synced {
		t.Error("sync hook did not run")
	}
	series, err := ParsePromText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if series[PromPrefix+MUptimeSeconds] != 42 {
		t.Error("scrape-time gauge sync not reflected in output")
	}
}
