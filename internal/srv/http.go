package srv

// HTTP/JSON surface.
//
//	POST /v1/jobs      submit async; 202 + job id (poll /v1/jobs/{id})
//	POST /v1/run       submit and wait; 200 done | 500 failed | 504 deadline
//	POST /v1/stream    submit async with Kind forced to "stream"
//	GET  /v1/jobs      job list summary (state counts + recent views)
//	GET  /v1/jobs/{id} job status/result
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 once draining)
//	GET  /metrics      Prometheus text exposition of the obsv registry
//
// Backpressure: a full queue answers 429 with Retry-After; a draining
// server answers 503 with Retry-After. Neither allocates a job.
//
// Every error response is one ErrorBody envelope: {code, message,
// details}. The legacy "error" key mirrors message so pre-envelope
// clients keep decoding.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cobra/internal/exp"
	"cobra/internal/fault"
)

// maxBodyBytes bounds request bodies; a JobSpec is tiny.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/run", s.handleRunSync)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON writes one JSON response with a trailing newline (curl
// friendliness).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Error codes of the /v1 envelope. Machine-readable and stable:
// clients branch on these, never on message text.
const (
	ErrCodeInvalidSpec = "invalid_spec"
	ErrCodeQueueFull   = "queue_full"
	ErrCodeDraining    = "draining"
	ErrCodeNotFound    = "not_found"
	ErrCodeInternal    = "internal"
)

// ErrorBody is the single error envelope every /v1 endpoint answers
// with: a stable machine-readable code, a human message, and optional
// structured details. Legacy mirrors Message under the historical
// top-level "error" key for pre-envelope clients.
type ErrorBody struct {
	Code    string            `json:"code"`
	Message string            `json:"message"`
	Details map[string]string `json:"details,omitempty"`
	Legacy  string            `json:"error"`
}

// writeError emits one enveloped error response.
func writeError(w http.ResponseWriter, status int, code, msg string, details map[string]string) {
	writeJSON(w, status, ErrorBody{Code: code, Message: msg, Details: details, Legacy: msg})
}

// decodeSpec parses and strictly decodes a JobSpec (unknown fields are
// rejected so misspelled knobs fail loudly instead of silently running
// a default).
func decodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, bool) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidSpec,
			fmt.Sprintf("srv: decoding job spec: %v", err), nil)
		return JobSpec{}, false
	}
	return spec, true
}

// acceptJob runs the shared submit path and maps rejections to HTTP
// semantics. Returns nil after writing an error response.
func (s *Server) acceptJob(w http.ResponseWriter, spec JobSpec) *Job {
	job, err := s.submit(spec)
	switch {
	case err == nil:
		return job
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrCodeQueueFull, err.Error(), nil)
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, ErrCodeDraining, err.Error(), nil)
	case errors.Is(err, fault.ErrInjected):
		// An injected admission fault is an internal failure, not the
		// client's: 500, retryable.
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error(), nil)
	default:
		writeError(w, http.StatusBadRequest, ErrCodeInvalidSpec, err.Error(), nil)
	}
	return nil
}

// handleSubmit is POST /v1/jobs: async submission.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("srv.http.jobs_post").Add(1)
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	job := s.acceptJob(w, spec)
	if job == nil {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.id)
	writeJSON(w, http.StatusAccepted, job.View())
}

// handleStream is POST /v1/stream: async submission with Kind forced
// to "stream" — sugar over POST /v1/jobs with {"kind":"stream"}; both
// spellings run the same path.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("srv.http.stream_post").Add(1)
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	spec.Kind = exp.KindStream
	job := s.acceptJob(w, spec)
	if job == nil {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.id)
	writeJSON(w, http.StatusAccepted, job.View())
}

// handleRunSync is POST /v1/run: submit and wait for the result, up to
// the job's own timeout budget. On deadline the job keeps running and
// the 504 body carries its id for polling.
func (s *Server) handleRunSync(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("srv.http.run_post").Add(1)
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	job := s.acceptJob(w, spec)
	if job == nil {
		return
	}
	// The body is fully decoded; clear the server's read deadline so a
	// long-running job outlives ReadTimeout. Without this the connection
	// deadline fires mid-wait, the background body read fails, and the
	// request context is canceled before the job finishes. Recorders in
	// tests don't implement the controller — that error is fine to drop.
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
	deadline := time.NewTimer(s.timeoutFor(job.spec) + time.Second)
	defer deadline.Stop()
	select {
	case <-job.Done():
		v := job.View()
		switch v.State {
		case JobDone:
			writeJSON(w, http.StatusOK, v)
		case JobCanceled:
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusServiceUnavailable, v)
		default: // JobFailed
			writeJSON(w, http.StatusInternalServerError, v)
		}
	case <-deadline.C:
		w.Header().Set("Location", "/v1/jobs/"+job.id)
		writeJSON(w, http.StatusGatewayTimeout, job.View())
	case <-r.Context().Done():
		// Client went away; the job finishes (and caches) regardless.
	}
}

// handleJobsList is GET /v1/jobs: lifecycle counts plus recent views.
func (s *Server) handleJobsList(w http.ResponseWriter, _ *http.Request) {
	s.reg.Counter("srv.http.jobs_list").Add(1)
	writeJSON(w, http.StatusOK, s.jobsSummary())
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("srv.http.jobs_get").Add(1)
	id := r.PathValue("id")
	job, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			fmt.Sprintf("srv: no job %q", id), map[string]string{"id": id})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

// handleHealthz is liveness: 200 while the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: flips to 503 the moment draining starts,
// so load balancers stop routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.Draining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.started.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// handleMetrics is GET /metrics: the registry in Prometheus text
// exposition format. Queue depth and cache size are refreshed at
// scrape time so a quiet server still reports truth.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.reg.Gauge("srv.queue.depth").Set(float64(len(s.queue)))
	s.reg.Gauge("srv.cache.size").Set(float64(s.cache.Len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers are gone; nothing useful to do but note it.
		s.reg.Counter("srv.http.metrics_errors").Add(1)
	}
}
