// Package srv is the cobrad simulation service: a long-running
// HTTP/JSON daemon that accepts simulation jobs (app, input, scale,
// seed, schemes, arch knobs), executes them on a bounded worker pool
// built on the exp campaign machinery (per-cell panic isolation and
// timeouts), and serves results from a content-addressed cache keyed
// by the checkpoint cell fingerprint. See DESIGN.md §"cobrad service"
// for the job lifecycle and the drain/flush shutdown order.
package srv

import (
	"fmt"
	"sync"
	"time"

	"cobra/internal/exp"
	"cobra/internal/sim"
)

// JobSpec is the wire form of one simulation request: the canonical
// exp.RunSpec — one (app, input, scale, seed) workload run through one
// or more schemes, offline or streamed — plus the service-level
// timeout knob. Embedding keeps the wire format flat: the JSON object
// is exactly the RunSpec fields plus timeout_ms, byte-compatible with
// every pre-RunSpec client.
type JobSpec struct {
	exp.RunSpec
	// TimeoutMS caps this job's wall-clock; 0 uses the server default.
	// Clamped to the server maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize validates the spec through the one shared validation path
// (exp.RunSpec.Normalize under the server's limits) plus the
// service-level constraints, filling defaults in place. Every
// violation is a client error (HTTP 400).
func (sp *JobSpec) normalize(cfg Config) error {
	if err := sp.RunSpec.Normalize(exp.Limits{
		DefaultScale: cfg.DefaultScale,
		MaxScale:     cfg.MaxScale,
		MaxCores:     maxCores,
	}); err != nil {
		return err
	}
	// A streamed job reports one merged result plus per-window metrics;
	// one scheme per job keeps that wire shape unambiguous (submit one
	// job per scheme to compare).
	if sp.Kind == exp.KindStream && len(sp.Schemes) != 1 {
		return fmt.Errorf("srv: stream jobs run exactly one scheme, got %d", len(sp.Schemes))
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("srv: negative timeout_ms %d", sp.TimeoutMS)
	}
	if maxMS := cfg.MaxJobTimeout.Milliseconds(); maxMS > 0 && sp.TimeoutMS > maxMS {
		sp.TimeoutMS = maxMS
	}
	return nil
}

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle: queued -> running -> done|failed; queued -> canceled
// (only during drain, when the server stops dispatching queued jobs).
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one accepted simulation request. All mutation goes through
// the state methods; readers take View snapshots.
type Job struct {
	id   string
	spec JobSpec

	mu        sync.Mutex
	state     JobState
	errMsg    string
	results   []sim.Metrics
	windows   []sim.Metrics // streamed jobs: per-window metrics, live
	hits      int           // scheme cells served from the result cache
	misses    int           // scheme cells simulated fresh
	submitted time.Time
	started   time.Time
	finished  time.Time

	// done closes exactly once when the job reaches a terminal state;
	// sync /v1/run handlers and tests wait on it.
	done chan struct{}
}

func newJob(id string, spec JobSpec, now time.Time) *Job {
	return &Job{
		id:        id,
		spec:      spec,
		state:     JobQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
}

// Done returns the completion channel (closed at any terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobRunning
	j.started = now
}

// windowDone appends one completed stream window, so GET /v1/jobs/{id}
// shows per-window progress while the job is still running.
func (j *Job) windowDone(m sim.Metrics) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.windows = append(j.windows, m)
}

// finish moves the job to its terminal state and releases waiters.
func (j *Job) finish(results []sim.Metrics, hits, misses int, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.hits, j.misses = hits, misses
	j.finished = now
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
		j.results = results
	}
	close(j.done)
}

// cancel marks a never-started job canceled (drain path).
func (j *Job) cancel(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return
	}
	j.state = JobCanceled
	j.errMsg = "srv: server draining; job was never started"
	j.finished = now
	close(j.done)
}

// JobView is the JSON representation served by GET /v1/jobs/{id} and
// POST /v1/run. Results carry the exact sim.Metrics structs the
// figures pipeline uses, so CLI (-json) and API wire formats align.
// Streamed jobs additionally carry Windows — the per-window metrics in
// window order (populated live as windows complete) — while Results
// holds the single MergeMetrics fold.
type JobView struct {
	ID          string        `json:"id"`
	State       JobState      `json:"state"`
	Spec        JobSpec       `json:"spec"`
	Error       string        `json:"error,omitempty"`
	Results     []sim.Metrics `json:"results,omitempty"`
	Windows     []sim.Metrics `json:"windows,omitempty"`
	CacheHits   int           `json:"cache_hits"`
	CacheMisses int           `json:"cache_misses"`
	SubmittedAt string        `json:"submitted_at,omitempty"`
	StartedAt   string        `json:"started_at,omitempty"`
	FinishedAt  string        `json:"finished_at,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Error:       j.errMsg,
		Results:     j.results,
		CacheHits:   j.hits,
		CacheMisses: j.misses,
	}
	if len(j.windows) > 0 {
		v.Windows = append([]sim.Metrics(nil), j.windows...)
	}
	if !j.submitted.IsZero() {
		v.SubmittedAt = j.submitted.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}
