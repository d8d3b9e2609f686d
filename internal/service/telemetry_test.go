package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestMetricsEndpoint: /metrics speaks valid Prometheus text format (the
// strict parser round-trips it), exposes at least 20 distinct series, the
// series reflect real work, and every metric the job left in the registry
// is a catalog entry of its declared kind.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := startTestServer(t, testConfig(t.TempDir()))
	defer s.Drain(context.Background())
	_, st := postJob(t, ts, smallGrid())
	job, _ := s.Job(st.ID)
	waitTerminal(t, job, 30*time.Second)

	// The terminal-state counters land moments after the state flip that
	// waitTerminal observes, so scrape until jobs_done reflects the job.
	var series map[string]float64
	p := telemetry.PromPrefix
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("content type %q", ct)
		}
		series, err = telemetry.ParsePromText(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/metrics output does not parse: %v", err)
		}
		if series[p+"jobs_done"] >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(series) < 20 {
		t.Errorf("/metrics exposes %d series, want >= 20", len(series))
	}
	checks := map[string]float64{
		p + "jobs_submitted": 1,
		p + "jobs_done":      1,
		p + "cells_done":     2,
		p + "cell_attempts":  2,
	}
	for name, want := range checks {
		if got := series[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// HTTP middleware metrics count this very scrape's predecessors.
	if series[p+"http_requests"] < 1 {
		t.Error("http_requests did not count the API calls")
	}
	if series[p+"http_request_latency_us_count"] < 1 {
		t.Error("request latency summary empty")
	}
	if _, ok := series[p+"journal_append_latency_us_count"]; !ok {
		t.Error("journal append latency series missing")
	}
	if series[p+"uptime_seconds"] < 0 {
		t.Error("uptime gauge missing")
	}
	for _, m := range s.Registry().Export() {
		if d, ok := obs.Lookup(m.Name); !ok || d.Kind != m.Kind {
			t.Errorf("registry metric %q (%s) is not a catalog entry of that kind", m.Name, m.Kind)
		}
	}
}

// postJobWithID submits a job carrying a client X-Request-ID.
func postJobWithID(t *testing.T, url, reqID string, req GridRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest("POST", url+"/v1/jobs", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		hreq.Header.Set("X-Request-ID", reqID)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

// TestJobTraceNesting: a completed job with forced retries yields a Chrome
// trace whose spans link http.request → job → cell → attempt, with more
// attempt spans than cells and backoff gaps between a cell's attempts.
func TestJobTraceNesting(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	// Every cell fails twice transiently, so each records 3 attempt spans
	// separated by real backoff.
	cfg.Faults = &faultinject.Plan{Seed: 7, TransientRate: 1, TransientFails: 2}
	cfg.Retries = 3
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	s, ts := startTestServer(t, cfg)
	defer s.Drain(context.Background())

	_, st := postJob(t, ts, smallGrid())
	job, _ := s.Job(st.ID)
	if got := waitTerminal(t, job, 30*time.Second); got.State != StateDone {
		t.Fatalf("job ended %s (%s)", got.State, got.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			Ts    int64             `json:"ts"`
			Dur   int64             `json:"dur"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("trace is not valid trace-event JSON: %v", err)
	}

	byID := map[string]string{} // span_id → name
	parent := map[string]string{}
	counts := map[string]int{}
	type spanT struct{ ts, dur int64 }
	times := map[string]spanT{}
	for _, e := range tr.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		id := e.Args["span_id"]
		byID[id] = e.Name
		parent[id] = e.Args["parent_id"]
		counts[e.Name]++
		times[id] = spanT{e.Ts, e.Dur}
	}
	if counts["http.request"] != 1 || counts["job"] != 1 || counts["cell"] != 2 {
		t.Fatalf("span counts = %v", counts)
	}
	if counts["attempt"] != 6 { // 2 cells × 3 attempts
		t.Errorf("attempt spans = %d, want 6 (retries invisible)", counts["attempt"])
	}
	// Every attempt chains attempt → cell → job → http.request.
	for id, name := range byID {
		if name != "attempt" {
			continue
		}
		chain := []string{}
		for cur := id; cur != ""; cur = parent[cur] {
			chain = append(chain, byID[cur])
		}
		want := []string{"attempt", "cell", "job", "http.request"}
		if !reflect.DeepEqual(chain, want) {
			t.Fatalf("attempt %s chain = %v, want %v", id, chain, want)
		}
	}
	// Backoff gaps: within one cell, attempt k+1 starts after attempt k
	// ends. Group attempts by parent cell, ordered by ts.
	byCell := map[string][]spanT{}
	for id, name := range byID {
		if name == "attempt" {
			byCell[parent[id]] = append(byCell[parent[id]], times[id])
		}
	}
	for cell, as := range byCell {
		if len(as) != 3 {
			t.Fatalf("cell %s has %d attempts", cell, len(as))
		}
		for i := range as {
			for j := i + 1; j < len(as); j++ {
				if as[j].ts < as[i].ts {
					as[i], as[j] = as[j], as[i]
				}
			}
		}
		for i := 1; i < len(as); i++ {
			if as[i].ts < as[i-1].ts+as[i-1].dur {
				t.Errorf("cell %s attempts overlap: %v", cell, as)
			}
		}
	}

	// The raw span form is also served.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("ndjson content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var sp telemetry.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad span line: %v", err)
		}
		lines++
	}
	if lines != 10 { // request + job + 2 cells + 6 attempts
		t.Errorf("%d span lines, want 10", lines)
	}

	// Terminal jobs export both trace files for post-mortem use. The export
	// lands moments after the job turns terminal, so poll briefly.
	for _, name := range []string{st.ID + ".trace.json", st.ID + ".spans.ndjson"} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, err := os.Stat(filepath.Join(s.TraceDir(), name))
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("trace file not exported: %v", err)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestRequestIDPropagation: a well-formed client X-Request-ID is echoed in
// the response header, the job status, the root span's trace ID and the
// journal (it survives a restart); a malformed one is replaced.
func TestRequestIDPropagation(t *testing.T) {
	dir := t.TempDir()
	s, ts := startTestServer(t, testConfig(dir))

	resp, st := postJobWithID(t, ts.URL, "client-42", smallGrid())
	if got := resp.Header.Get("X-Request-ID"); got != "client-42" {
		t.Errorf("response header = %q, want client-42", got)
	}
	if st.RequestID != "client-42" {
		t.Errorf("status request_id = %q", st.RequestID)
	}
	job, _ := s.Job(st.ID)
	if got := job.Tracer().TraceID(); got != "client-42" {
		t.Errorf("trace ID = %q, want the client request ID", got)
	}
	waitTerminal(t, job, 30*time.Second)

	// Malformed IDs are never echoed; the server mints its own.
	resp2, st2 := postJobWithID(t, ts.URL, "", smallGrid())
	gen := resp2.Header.Get("X-Request-ID")
	if gen == "" || st2.RequestID != gen {
		t.Errorf("generated ID not threaded: header %q, status %q", gen, st2.RequestID)
	}
	job2, _ := s.Job(st2.ID)
	waitTerminal(t, job2, 30*time.Second)

	hreq, _ := http.NewRequest("GET", ts.URL+"/v1/jobs", nil)
	hreq.Header.Set("X-Request-ID", "bad id with spaces!")
	resp3, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, " ") {
		t.Errorf("malformed client ID echoed or dropped: %q", got)
	}

	// The ID rides the journal across restarts.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	restored, ok := s2.Job(st.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if got := restored.Status().RequestID; got != "client-42" {
		t.Errorf("restored request_id = %q, want client-42", got)
	}
}

// TestAccessLogOneLinePerRequest: every API request produces exactly one
// structured "http" log line with method, path, status, duration and
// request ID.
func TestAccessLogOneLinePerRequest(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	cfg := testConfig(t.TempDir())
	cfg.Logger = slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	s, ts := startTestServer(t, cfg)
	defer s.Drain(context.Background())

	paths := []string{"/healthz", "/readyz", "/metrics", "/v1/jobs", "/v1/jobs/nope"}
	for _, p := range paths {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		// Read to the end: the server finishes a response only after the
		// handler chain (access log included) has returned, while closing
		// an unread body lets the next request start before that.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the ordering matters
		resp.Body.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	type line struct {
		Msg        string `json:"msg"`
		Method     string `json:"method"`
		Path       string `json:"path"`
		Status     int    `json:"status"`
		DurationUs *int64 `json:"duration_us"`
		RequestID  string `json:"request_id"`
	}
	var got []line
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("non-JSON log line %q: %v", sc.Text(), err)
		}
		if l.Msg == "http" {
			got = append(got, l)
		}
	}
	if len(got) != len(paths) {
		t.Fatalf("%d access-log lines for %d requests:\n%s", len(got), len(paths), buf.String())
	}
	for i, l := range got {
		if l.Path != paths[i] || l.Method != "GET" {
			t.Errorf("line %d is %s %s, want GET %s", i, l.Method, l.Path, paths[i])
		}
		if l.Status == 0 || l.DurationUs == nil || l.RequestID == "" {
			t.Errorf("line %d missing fields: %+v", i, l)
		}
	}
	if got[len(got)-1].Status != 404 {
		t.Errorf("missing-job request logged status %d, want 404", got[len(got)-1].Status)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestTelemetryOffBitIdentical: span recording only observes — the same
// request returns byte-for-byte identical results with telemetry on and
// off, and the off path exports no trace files.
func TestTelemetryOffBitIdentical(t *testing.T) {
	run := func(noTel bool) ([]CellResult, string) {
		dir := t.TempDir()
		cfg := testConfig(dir)
		cfg.NoTelemetry = noTel
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Drain(context.Background())
		job, err := s.Submit(GridRequest{Workloads: []string{"mu3", "rd1n3"}, Scale: 0.01, SizesKB: []int{2, 4}})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job, 30*time.Second); st.State != StateDone {
			t.Fatalf("job ended %s", st.State)
		}
		return job.Results(), s.TraceDir()
	}
	on, _ := run(false)
	off, offDir := run(true)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("results differ with telemetry off:\n on  %+v\n off %+v", on, off)
	}
	if ents, err := os.ReadDir(offDir); err == nil && len(ents) > 0 {
		t.Errorf("telemetry off still exported %d trace files", len(ents))
	}
}

// TestEventStreamResumeAcrossRestart: an events cursor taken before a crash
// is not honored blindly after restart — sequence numbers restart with the
// process, so ?from= beyond the new life's log replays from 0 and still
// reaches a terminal state. No hang, no skipped terminal event.
func TestEventStreamResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := startTestServer(t, testConfig(dir))
	_, st := postJob(t, ts, smallGrid())
	job, _ := s.Job(st.ID)
	waitTerminal(t, job, 30*time.Second)

	// Drain the full stream to learn the pre-restart cursor.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		n++
	}
	resp.Body.Close()
	if n < 4 {
		t.Fatalf("only %d events before restart", n)
	}
	s.Kill()
	ts.Close()

	s2, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	s2.Start()
	ts2 := httptest.NewServer(NewServer(s2))
	defer ts2.Close()

	// Resume with the stale cursor: the restored job's log restarted at
	// seq 0, so the stream clamps and replays everything it has.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts2.URL, st.ID, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var evs []Event
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev Event
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc2.Text(), err)
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		t.Fatal("stale cursor returned no events after restart")
	}
	if evs[0].Seq != 0 {
		t.Errorf("replay starts at seq %d, want 0 (clamped)", evs[0].Seq)
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Errorf("stream did not end at the terminal state: %+v", last)
	}

	// In-range cursors still work as offsets on the new life.
	resp3, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts2.URL, st.ID, len(evs)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	tail, _ := bufio.NewReader(resp3.Body).ReadString('\n')
	var ev Event
	if err := json.Unmarshal([]byte(tail), &ev); err != nil || ev.Seq != last.Seq {
		t.Errorf("in-range resume tail = %q (err %v)", tail, err)
	}
}
