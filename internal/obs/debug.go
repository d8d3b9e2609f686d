package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DebugServer is the optional live-inspection HTTP listener: /debug/vars
// serves expvar (including the sweep registry snapshot under "sweep") and
// /debug/pprof/* serves the standard profiles, so a stuck 30-minute sweep
// can be profiled without restarting it.
type DebugServer struct {
	// Addr is the bound address (resolves ":0" to the chosen port).
	Addr string
	// ShutdownTimeout bounds how long Close waits for in-flight requests
	// (a pprof profile capture runs for seconds) before dropping them;
	// zero means DefaultShutdownTimeout.
	ShutdownTimeout time.Duration
	srv             *http.Server
}

// DefaultShutdownTimeout is how long Close drains in-flight debug requests
// by default.
const DefaultShutdownTimeout = 5 * time.Second

// expvar names are global to the process; publish once and swap the backing
// registry behind a lock so repeated Serve calls (tests) stay legal.
var (
	pubOnce sync.Once
	pubMu   sync.Mutex
	pubReg  *Registry
)

func publishRegistry(reg *Registry) {
	pubMu.Lock()
	pubReg = reg
	pubMu.Unlock()
	pubOnce.Do(func() {
		expvar.Publish("sweep", expvar.Func(func() any {
			pubMu.Lock()
			defer pubMu.Unlock()
			if pubReg == nil {
				return nil
			}
			return pubReg.Snapshot()
		}))
	})
}

// Route is one extra handler mounted on a debug server. Callers use it to
// hang service-specific pages (a /metrics exposition with the service's
// scrape-time gauges) off the same listener as expvar and pprof without
// obs depending on the service.
type Route struct {
	// Pattern is a ServeMux pattern, method-qualified if desired
	// (e.g. "GET /metrics").
	Pattern string
	Handler http.Handler
}

// Serve binds addr (":0" picks a free port), publishes the registry to
// expvar and serves /debug/vars plus /debug/pprof/* until Close, along with
// any extra routes. Under the obs_debug build tag it also enables mutex and
// block profiling.
func Serve(addr string, reg *Registry, extra ...Route) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener %s: %w", addr, err)
	}
	publishRegistry(reg)
	enableDeepProfiling()

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", cpuProfileHandler)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return &DebugServer{Addr: ln.Addr().String(), srv: srv}, nil
}

// cpuCaptureBusy guards the CPU-profile endpoint. The Go CPU profiler is
// process-global — only one capture can run at a time anywhere in the
// process — and net/http/pprof answers a second request with a misleading
// 500 ("Could not enable CPU profiling: cpu profiling already in use").
// The flag turns the common case, two operators racing the same endpoint,
// into an honest 409 before the profiler is even touched.
var cpuCaptureBusy atomic.Bool

// cpuProfileHandler is /debug/pprof/profile: a ?seconds= CPU capture
// streamed as gzipped profile.proto, refusing concurrent captures with
// 409 Conflict. A capture owned by another part of the process (a -profile
// run capture) also answers 409, via the runtime's own error.
func cpuProfileHandler(w http.ResponseWriter, r *http.Request) {
	sec, err := strconv.ParseFloat(r.FormValue("seconds"), 64)
	if err != nil || sec <= 0 {
		sec = 30
	}
	if !cpuCaptureBusy.CompareAndSwap(false, true) {
		conflict(w, "a CPU profile capture is already running on this endpoint; retry when it finishes")
		return
	}
	defer cpuCaptureBusy.Store(false)
	// Headers must be decided before the profiler's first body write
	// commits them; conflict() below overrides them when Start fails.
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="profile"`)
	if err := rpprof.StartCPUProfile(noFlushWriter{w}); err != nil {
		// The endpoint flag was free, so some other owner (e.g. a run-level
		// -profile capture) holds the profiler: still a conflict, not a
		// server error.
		conflict(w, fmt.Sprintf("CPU profiler busy elsewhere in the process: %v", err))
		return
	}
	select {
	case <-time.After(time.Duration(sec * float64(time.Second))):
	case <-r.Context().Done():
		// Client went away; stop profiling rather than burn the window.
	}
	rpprof.StopCPUProfile()
}

// conflict writes a 409 with a plain-text reason.
func conflict(w http.ResponseWriter, reason string) {
	w.Header().Del("Content-Disposition")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusConflict)
	fmt.Fprintln(w, reason)
}

// noFlushWriter hides optional interfaces of the ResponseWriter from the
// profile writer so the gzip stream is written plainly.
type noFlushWriter struct{ w http.ResponseWriter }

func (nw noFlushWriter) Write(p []byte) (int, error) { return nw.w.Write(p) }

// Close stops accepting new connections and waits up to ShutdownTimeout
// for in-flight requests (a profile capture, a trace download) to finish;
// requests still running at the deadline are dropped by a hard close. The
// sweep itself is unaffected either way.
func (d *DebugServer) Close() error {
	timeout := d.ShutdownTimeout
	if timeout <= 0 {
		timeout = DefaultShutdownTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if err == nil {
		return nil
	}
	if cerr := d.srv.Close(); cerr != nil {
		return cerr
	}
	return err
}
