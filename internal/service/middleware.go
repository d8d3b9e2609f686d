package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net"
	"net/http"
	"regexp"
	"time"

	"repro/internal/obs"
)

type requestIDKey struct{}

// WithRequestID stores a request ID on the context; SubmitCtx picks it up
// as the job's RequestID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the context's request ID, "" when absent.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

type clientIDKey struct{}

// WithClient stores a client identity on the context; SubmitCtx charges
// that client's quota bucket and records it on the job.
func WithClient(ctx context.Context, client string) context.Context {
	return context.WithValue(ctx, clientIDKey{}, client)
}

// ClientFrom returns the context's client identity, "" when absent.
func ClientFrom(ctx context.Context) string {
	c, _ := ctx.Value(clientIDKey{}).(string)
	return c
}

// clientIdentity resolves a request's quota identity: a well-formed
// X-Client-ID header (same shape rules as X-Request-ID — short,
// printable, no structure) or, failing that, the remote host. Porous by
// design: a client can mint fresh IDs, but each costs a cold bucket, and
// the global admission bucket still bounds the total.
func clientIdentity(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); validRequestID.MatchString(id) {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// validRequestID bounds what client-supplied X-Request-ID values we echo
// into logs, job statuses and journal records: short, printable, no
// structure.
var validRequestID = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// newRequestID generates a server-side request ID for clients that send
// none. Random, not sequential: IDs appear in journals that outlive the
// process.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-entropy-failed"
	}
	return "r" + hex.EncodeToString(b[:])
}

// statusWriter captures the response status for the access log while
// passing Flush through — the events stream depends on it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability wraps the API with X-Request-ID propagation, HTTP
// metrics and a structured access log: exactly one line per request with
// method, path, status, duration and request ID. Client-supplied IDs are
// accepted when well-formed (so a caller's ID threads through logs,
// status and journal); anything else is replaced, never echoed raw.
func withObservability(next http.Handler, reg *obs.Registry, log *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if !validRequestID.MatchString(reqID) {
			reqID = newRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		ctx := WithClient(WithRequestID(r.Context(), reqID), clientIdentity(r))
		next.ServeHTTP(sw, r.WithContext(ctx))
		d := time.Since(start)
		reg.Counter(obs.MHTTPRequests).Add(1)
		if sw.code >= 400 {
			reg.Counter(obs.MHTTPErrors).Add(1)
		}
		reg.Timing(obs.MHTTPRequestLatency).Observe(d)
		log.Info("http",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.code, "duration_us", d.Microseconds(),
			"request_id", reqID)
	})
}
