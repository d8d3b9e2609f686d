package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// daemonBinary builds cachesimd once per test run.
func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cachesimd-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "cachesimd")
		out, err := exec.Command("go", "build", "-o", buildPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}

// daemon is one running cachesimd process under test.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	done    chan struct{} // closed once cmd.Wait returns
	waitErr error         // valid after done is closed
}

// wait blocks until the process exits and returns its Wait error. Safe to
// call any number of times.
func (d *daemon) wait() error {
	<-d.done
	return d.waitErr
}

// startDaemon launches cachesimd on a kernel-assigned port and waits for
// the "listening" log line to learn the address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(daemonBinary(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("[daemon %d] %s", cmd.Process.Pid, line)
			if strings.Contains(line, "cachesimd listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						select {
						case addrCh <- a:
						default:
						}
					}
				}
			}
		}
	}()
	go func() { d.waitErr = cmd.Wait(); close(d.done) }()
	select {
	case d.addr = <-addrCh:
	case <-d.done:
		t.Fatalf("daemon exited before listening: %v", d.waitErr)
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never reported its address")
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})
	return d
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func postJSON(t *testing.T, url string, body any, into any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		body, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: %v (%s)", url, err, body)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode
}

// TestDaemonCrashRecoveryAndDrain is the process-level acceptance test:
// SIGKILL mid-job loses nothing (the restarted daemon requeues and
// finishes it, bit-identical to direct simulation), and SIGTERM drains the
// second daemon to a clean exit 0.
func TestDaemonCrashRecoveryAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode (run via `make soak`)")
	}
	dir := t.TempDir()

	// Life 1: every cell slowed 150ms so SIGKILL lands mid-job.
	d1 := startDaemon(t, "-data", dir, "-workers", "1", "-cell-workers", "1",
		"-faults", "slow=1,slowfor=150ms")
	req := service.GridRequest{
		Workloads: []string{"mu3"}, Scale: 0.01, SizesKB: []int{1, 2, 4, 8, 16, 32},
	}
	var st service.JobStatus
	if code := postJSON(t, d1.url("/v1/jobs"), req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if code := getJSON(t, d1.url("/healthz"), nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}

	// Wait for the first completed cell, then SIGKILL.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur service.JobStatus
		getJSON(t, d1.url("/v1/jobs/"+st.ID), &cur)
		if cur.Cells.Done >= 1 {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before the kill: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.wait() //nolint:errcheck // SIGKILL: non-zero exit expected

	// Life 2: same data dir, no faults. The journaled job must be there
	// and must finish.
	d2 := startDaemon(t, "-data", dir, "-workers", "1")
	var out struct {
		Status  service.JobStatus    `json:"status"`
		Results []service.CellResult `json:"results"`
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		code := getJSON(t, d2.url("/v1/jobs/"+st.ID+"/result"), &out)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("result after restart: %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("requeued job never finished")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(out.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(out.Results))
	}
	// Bit-identical to direct in-process simulation.
	byKey := map[string]service.CellResult{}
	for _, r := range out.Results {
		byKey[r.Key] = r
	}
	for _, cs := range req.Cells() {
		want, err := cs.Simulate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := byKey[cs.Key()]; !reflect.DeepEqual(got, want) {
			t.Errorf("cell %s diverges from direct run:\n got %+v\nwant %+v", cs.Key(), got, want)
		}
	}

	// SIGTERM: graceful drain, exit 0.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d2.done:
		if d2.waitErr != nil {
			t.Fatalf("SIGTERM drain exited non-zero: %v", d2.waitErr)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestDaemonShedsUnderPressure: a rate-limited daemon answers the burst
// overflow with 429 + Retry-After instead of queuing unboundedly.
func TestDaemonShedsUnderPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	d := startDaemon(t, "-data", t.TempDir(), "-rate", "0.001", "-burst", "1")
	req := service.GridRequest{Workloads: []string{"mu3"}, Scale: 0.01}
	if code := postJSON(t, d.url("/v1/jobs"), req, nil); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	raw, _ := json.Marshal(req)
	resp, err := http.Post(d.url("/v1/jobs"), "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
}

// TestDaemonTelemetryEndpoints: the live process serves Prometheus metrics
// and, once a job completes, its NDJSON event log with one event per cell.
func TestDaemonTelemetryEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode (run via `make soak`)")
	}
	d := startDaemon(t, "-data", t.TempDir(), "-workers", "1")

	req := service.GridRequest{Workloads: []string{"mu3"}, Scale: 0.01, SizesKB: []int{2, 4}}
	var st service.JobStatus
	if code := postJSON(t, d.url("/v1/jobs"), req, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur service.JobStatus
		getJSON(t, d.url("/v1/jobs/"+st.ID), &cur)
		if cur.State == service.StateDone {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", cur)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// /metrics: valid exposition format with a real series catalog.
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	series, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if len(series) < 20 {
		t.Errorf("/metrics exposes %d series, want >= 20", len(series))
	}
	if series[obs.PromPrefix+"jobs_done"] < 1 {
		t.Error("jobs_done not counted")
	}

	// /v1/jobs/{id}/events: the finished job's timeline, ending at done.
	resp, err = http.Get(d.url("/v1/jobs/" + st.ID + "/events"))
	if err != nil {
		t.Fatal(err)
	}
	var evs []service.Event
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev service.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("events: %v", err)
		}
		evs = append(evs, ev)
	}
	resp.Body.Close()
	cells := 0
	for _, ev := range evs {
		if ev.Type == "cell" {
			cells++
		}
	}
	if resp.StatusCode != http.StatusOK || cells != 2 || evs[len(evs)-1].State != service.StateDone {
		t.Errorf("events: status %d, %d cell events, log %+v", resp.StatusCode, cells, evs)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
}
