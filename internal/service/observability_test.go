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
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
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
	p := obs.PromPrefix
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("content type %q", ct)
		}
		series, err = obs.ParsePromText(resp.Body)
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

// jobEvents reads a terminal job's whole event log from GET
// /v1/jobs/{id}/events, each line decoded both as an Event and as raw
// fields, so a test can tell an absent field from a zero one.
func jobEvents(t *testing.T, url, id string) ([]Event, []map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []Event
	var raws []map[string]json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
		raws = append(raws, raw)
	}
	if len(evs) == 0 {
		t.Fatalf("job %s has no events", id)
	}
	return evs, raws
}

// TestJobEventsCountAttempts: a job's event log shows its retries. With
// every cell failing twice transiently, each cell event reports the three
// attempts the cell took and the final tally counts every cell as
// retried. The same grid submitted again is served from the memo, and its
// cell events carry no attempts.
func TestJobEventsCountAttempts(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Faults = &faultinject.Plan{Seed: 7, TransientRate: 1, TransientFails: 2}
	cfg.Retries = 3
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	s, ts := startTestServer(t, cfg)
	defer s.Drain(context.Background())

	run := func() (JobStatus, []Event, []map[string]json.RawMessage) {
		_, st := postJob(t, ts, smallGrid())
		job, _ := s.Job(st.ID)
		if got := waitTerminal(t, job, 30*time.Second); got.State != StateDone {
			t.Fatalf("job ended %s (%s)", got.State, got.Error)
		}
		evs, raws := jobEvents(t, ts.URL, st.ID)
		return st, evs, raws
	}

	st, evs, _ := run()
	cells := 0
	for _, ev := range evs {
		if ev.Type != "cell" {
			continue
		}
		cells++
		if ev.Attempts != 3 {
			t.Errorf("cell %s: attempts = %d, want 3", ev.Cell, ev.Attempts)
		}
	}
	if cells != st.Cells.Planned {
		t.Fatalf("%d cell events for %d planned cells", cells, st.Cells.Planned)
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("log does not end at done: %+v", last)
	}
	if last.Tally.Retried != cells {
		t.Errorf("tally retried = %d, want %d (every cell)", last.Tally.Retried, cells)
	}

	// Resubmitted, every cell is a memo hit: nothing ran, so nothing is
	// counted as an attempt.
	_, evs2, raws2 := run()
	memo := 0
	for i, ev := range evs2 {
		if ev.Type != "cell" {
			continue
		}
		memo++
		if _, ok := raws2[i]["attempts"]; ok {
			t.Errorf("memoized cell %s carries attempts %s", ev.Cell, raws2[i]["attempts"])
		}
	}
	tally := evs2[len(evs2)-1].Tally
	if memo != cells || tally.Replayed != cells || tally.Retried != 0 {
		t.Errorf("resubmission: %d cell events, tally %+v; want %d memo hits and no retries", memo, tally, cells)
	}
}

// TestRequestIDPropagation: a well-formed client X-Request-ID is echoed in
// the response header, the job status and the journal (it survives a
// restart); a malformed one is replaced.
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
