package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// maxRequestBytes bounds a POST /v1/jobs body. A grid at the default
// 4096-cell limit encodes in tens of KB, so a larger body is refused (413)
// before it is decoded.
const maxRequestBytes = 1 << 20

// NewServer builds the HTTP API over a Service:
//
//	POST   /v1/jobs             submit a GridRequest    → 202 + status
//	GET    /v1/jobs             list jobs               → 200 + statuses
//	GET    /v1/jobs/{id}        poll one job            → 200 + status
//	GET    /v1/jobs/{id}/events progress stream         → 200, NDJSON
//	GET    /v1/jobs/{id}/result fetch results           → 200/202/409
//	DELETE /v1/jobs/{id}        cancel                  → 202 + status
//	GET    /metrics             Prometheus text format  → 200
//	GET    /healthz             liveness                → 200
//	GET    /readyz              readiness               → 200/503
//
// A submission body over maxRequestBytes gets 413. Load-shed
// submissions return 429 with Retry-After; a draining server
// returns 503 for submissions and readiness. Every response carries an
// X-Request-ID (echoing a well-formed client one) and every request is
// access-logged with it.
func NewServer(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req GridRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("decoding request: %w", err))
			return
		}
		job, err := s.SubmitCtx(r.Context(), req)
		if err != nil {
			var shed *ShedError
			var degraded *DegradedError
			switch {
			case errors.As(err, &shed):
				w.Header().Set("Retry-After", strconv.Itoa(int(shed.RetryAfter.Seconds()+0.999)))
				httpError(w, http.StatusTooManyRequests, err)
			case errors.As(err, &degraded):
				// Storage is sick: the job cannot be made durable. 503 with
				// the probe interval — the soonest recovery could land.
				w.Header().Set("Retry-After", strconv.Itoa(int(degraded.RetryAfter.Seconds()+0.999)))
				httpError(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, ErrDraining):
				httpError(w, http.StatusServiceUnavailable, err)
			case s.JournalErr() != nil:
				// Accepting a job we cannot journal would break the
				// zero-lost-jobs promise; refuse until the disk recovers.
				httpError(w, http.StatusServiceUnavailable, err)
			default:
				httpError(w, http.StatusBadRequest, err)
			}
			return
		}
		writeJSON(w, http.StatusAccepted, job.accepted)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		statuses := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			statuses[i] = j.Status()
		}
		writeJSON(w, http.StatusOK, statuses)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		streamEvents(w, r, job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		st := job.Status()
		switch st.State {
		case StateDone:
			results, err := s.ResultsFor(r.Context(), job)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			writeJSON(w, http.StatusOK, struct {
				Status  JobStatus    `json:"status"`
				Results []CellResult `json:"results"`
			}{st, results})
		case StateQueued, StateRunning, StateInterrupted:
			// Interrupted jobs requeue on the next server start, so "not
			// yet" is the honest answer, not "never".
			writeJSON(w, http.StatusAccepted, st)
		default:
			writeJSON(w, http.StatusConflict, st)
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		job.Cancel(ErrClientCanceled)
		writeJSON(w, http.StatusAccepted, job.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"uptime_ms": s.Uptime().Milliseconds(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"draining":    s.Draining(),
			"queue_depth": s.QueueDepth(),
		}
		code := http.StatusOK
		if s.Draining() {
			code = http.StatusServiceUnavailable
			body["reason"] = "draining"
		} else if open, reason := s.Degraded(); open {
			code = http.StatusServiceUnavailable
			body["reason"] = "degraded: " + reason
		} else if err := s.JournalErr(); err != nil {
			code = http.StatusServiceUnavailable
			body["reason"] = "journal: " + err.Error()
		}
		writeJSON(w, code, body)
	})
	mux.Handle("GET /metrics", s.MetricsHandler())
	return withObservability(mux, s.Registry(), s.log)
}

// streamEvents writes the job's event log as NDJSON from ?from=<seq>
// (default 0), then follows live events until the job is terminal or the
// client goes away. Each line is flushed as it is written so curl shows
// progress in real time. Cursors from before a server restart are clamped
// by Job.ResumeSeq: the new life's log replays from 0.
func streamEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	seq := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q", v))
			return
		}
		seq = job.ResumeSeq(n)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, changed, terminal := job.EventsSince(seq)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
		}
		seq += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-time.After(30 * time.Second):
			// Keep-alive tick so idle proxies do not cut the stream; the
			// loop re-reads state and emits nothing if nothing changed.
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnect mid-body
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error(), "code": code})
}
