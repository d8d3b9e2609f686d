package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/perfobs"
)

// TestDebugProfileConcurrent409: while one CPU capture streams, a second
// request gets an honest 409 Conflict instead of net/http/pprof's default
// 500; the first capture still completes and yields a decodable profile.
func TestDebugProfileConcurrent409(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := fmt.Sprintf("http://%s/debug/pprof/profile?seconds=1", srv.Addr)

	type result struct {
		status int
		body   []byte
		err    error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			first <- result{err: err}
			return
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			err = rerr
		}
		first <- result{status: resp.StatusCode, body: body, err: err}
	}()

	// Wait for the first capture to own the endpoint before racing it.
	deadline := time.Now().Add(5 * time.Second)
	for !cpuCaptureBusy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("first capture never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent capture status = %d, want 409; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "already running") {
		t.Fatalf("409 body does not explain the conflict: %s", body)
	}

	r := <-first
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("first capture status = %d; body: %s", r.status, r.body)
	}
	if _, err := perfobs.Parse(r.body); err != nil {
		t.Fatalf("first capture is not a decodable profile: %v", err)
	}
}

// TestDebugProfileConflictsWithRunCapture: when a run-level perfobs capture
// holds the process-global profiler, the endpoint reports 409 too (via the
// runtime's own refusal), not a 500.
func TestDebugProfileConflictsWithRunCapture(t *testing.T) {
	cap, err := perfobs.Start(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	defer cap.Stop() //nolint:errcheck // teardown

	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=1", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "busy elsewhere") {
		t.Fatalf("409 body does not name the other owner: %s", body)
	}
}
