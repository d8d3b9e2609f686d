package telemetry

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestDashboard: the page is self-contained HTML with the endpoint paths
// substituted in and no unexpanded placeholders or external assets, and
// every metric its script reads is a catalog entry (a renamed one would
// silently blank a tile).
func TestDashboard(t *testing.T) {
	h := Dashboard("/metrics", "/v1/jobs")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dashboard", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"/metrics", "/v1/jobs", "<svg", "cachesimd dashboard"} {
		if !strings.Contains(body, want) {
			t.Errorf("page missing %q", want)
		}
	}
	for _, reject := range []string{"__METRICS__", "__JOBS__", "src=\"http", "href=\"http"} {
		if strings.Contains(body, reject) {
			t.Errorf("page contains %q (placeholder or external asset)", reject)
		}
	}
	reads := regexp.MustCompile(`g\(m, *"([^"]*)"\)`).FindAllStringSubmatch(body, -1)
	if len(reads) == 0 {
		t.Fatal("no g(m, \"...\") metric reads found in the page script")
	}
	for _, r := range reads {
		if _, ok := obs.Lookup(r[1]); !ok {
			t.Errorf("dashboard reads %q, which is not in the obs catalog", r[1])
		}
	}
}
