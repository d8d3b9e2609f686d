package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(NewServer(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req GridRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
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

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSubmitPollResult(t *testing.T) {
	s, ts := startTestServer(t, testConfig(t.TempDir()))
	defer s.Drain(context.Background())

	resp, st := postJob(t, ts, smallGrid())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.ID == "" || st.State != StateQueued || st.Cells.Planned != 2 {
		t.Fatalf("accepted status %+v", st)
	}

	// Poll until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if cur.State.Terminal() {
			if cur.State != StateDone {
				t.Fatalf("job ended %s (%s)", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	var out struct {
		Status  JobStatus    `json:"status"`
		Results []CellResult `json:"results"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &out); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if len(out.Results) != 2 || out.Results[0].Refs == 0 {
		t.Fatalf("results = %+v", out.Results)
	}

	// The list endpoint shows the job.
	var list []JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list code=%d len=%d", code, len(list))
	}
}

func TestHTTPEventStream(t *testing.T) {
	s, ts := startTestServer(t, testConfig(t.TempDir()))
	defer s.Drain(context.Background())
	_, st := postJob(t, ts, smallGrid())

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	// The stream ends by itself once the job is terminal.
	if len(events) < 4 { // queued? no — running + 2 cells + done at minimum
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Errorf("last event %+v", last)
	}
	cells := 0
	for i, ev := range events {
		if ev.Seq != events[0].Seq+i {
			t.Errorf("event %d out of order: %+v", i, ev)
		}
		if ev.Type == "cell" {
			cells++
		}
	}
	if cells != 2 {
		t.Errorf("%d cell events, want 2", cells)
	}

	// Resume from an offset: only the tail comes back.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, st.ID, last.Seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	tail, _ := bufio.NewReader(resp2.Body).ReadString('\n')
	var ev Event
	if err := json.Unmarshal([]byte(tail), &ev); err != nil || ev.Seq != last.Seq {
		t.Errorf("resumed tail = %q (err %v)", tail, err)
	}
}

func TestHTTPCancel(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.CellWorkers = 1
	s, ts := startTestServer(t, cfg)
	defer s.Drain(context.Background())
	_, st := postJob(t, ts, GridRequest{
		Workloads: []string{"mu3"}, Scale: 0.5, SizesKB: []int{1, 2, 4, 8, 16, 32},
	})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	job, _ := s.Job(st.ID)
	final := waitTerminal(t, job, 30*time.Second)
	if final.State != StateCanceled {
		t.Errorf("state after cancel: %+v", final)
	}
	// Result for a canceled job is a conflict, not a hang.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of canceled job: %d", code)
	}
}

func TestHTTPValidationAndNotFound(t *testing.T) {
	s, ts := startTestServer(t, testConfig(t.TempDir()))
	defer s.Drain(context.Background())

	resp, _ := postJob(t, ts, GridRequest{Workloads: []string{"no-such-workload"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad workload: %d", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, GridRequest{Workloads: []string{"mu3"}, SizesKB: []int{4194304}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized cache: %d", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d", r2.StatusCode)
	}
	// A well-formed body padded past maxRequestBytes is refused unread.
	padded := `{"workloads":["mu3"]` + strings.Repeat(" ", maxRequestBytes) + `}`
	r3, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d", r3.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/jdeadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
}

func TestHTTPRateShed429(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SubmitRate = 0.001
	cfg.SubmitBurst = 1
	s, ts := startTestServer(t, cfg)
	defer s.Drain(context.Background())

	if resp, _ := postJob(t, ts, smallGrid()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ := postJob(t, ts, smallGrid())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit: %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q", ra)
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	s, ts := startTestServer(t, testConfig(t.TempDir()))

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz before drain: %d", code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d", code)
	}
	if body["reason"] != "draining" {
		t.Errorf("readyz body = %+v", body)
	}
	// Liveness stays green during drain; submissions are refused.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz while draining: %d", code)
	}
	resp, _ := postJob(t, ts, smallGrid())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d", resp.StatusCode)
	}
}
