package srv

// Server: bounded job queue + worker pool + result cache.
//
// Request path:  handler -> validate -> enqueue (non-blocking; a full
// queue is backpressure, HTTP 429) -> worker dequeues -> each scheme
// runs as one exp cell (panic isolation, the job's deadline) through
// the result cache -> job reaches a terminal state and wakes sync
// waiters.
//
// The result cache is an exp.Journal, the cell store cmd/figures
// checkpoints through: every scheme execution is one simulation cell,
// keyed by the exact checkpoint fingerprint (exp.CellKey), so
// concurrent identical requests run once (Journal.Do's single flight;
// joiners count as hits), errors are never cached, and with CachePath
// set the cache is the same fsync'd JSONL format as a figures
// checkpoint: it survives restarts and can seed a figures -resume run.
//
// Shutdown path (Drain): flip readiness, stop intake, cancel
// never-started queued jobs, wait for in-flight jobs to finish, then
// flush and close the cache journal. The caller (cmd/cobrad) wires
// this to the first SIGINT/SIGTERM; a second signal aborts hard.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/exp"
	"cobra/internal/fault"
	"cobra/internal/obsv"
	"cobra/internal/sim"
	"cobra/internal/stream"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the job worker pool size (<= 0: one per CPU).
	Workers int
	// QueueDepth bounds the job queue; a full queue rejects with 429
	// (<= 0: 64).
	QueueDepth int
	// MaxInflight, when > 0, caps jobs admitted but not yet settled
	// (queued + running): submissions beyond it reject with 429 even
	// while the queue has room. Bounds worker memory precisely, and
	// lets the fleet smoke test provoke Retry-After redistribution
	// deterministically. 0 disables the cap.
	MaxInflight int
	// DefaultScale fills JobSpec.Scale == 0 (<= 0: 16).
	DefaultScale int
	// MaxScale caps job scale (0: exp.MaxScale).
	MaxScale int
	// DefaultJobTimeout bounds jobs that do not ask for a timeout
	// (<= 0: 5m); MaxJobTimeout clamps requested ones (<= 0: 30m).
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration
	// CachePath, when set, persists the result cache as an fsync'd
	// JSONL journal (the figures checkpoint format). CacheReset
	// truncates an existing file instead of resuming from it.
	CachePath  string
	CacheReset bool
	// Reg receives service metrics; nil disables instrumentation
	// (zero-cost, per the obsv contract).
	Reg *obsv.Registry
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultScale <= 0 {
		c.DefaultScale = 16
	}
	if c.MaxScale <= 0 || c.MaxScale > exp.MaxScale {
		c.MaxScale = exp.MaxScale
	}
	if c.DefaultJobTimeout <= 0 {
		c.DefaultJobTimeout = 5 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 30 * time.Minute
	}
	return c
}

// maxCores caps the per-job simulated core count.
const maxCores = 64

// Server is the cobrad simulation service.
type Server struct {
	cfg   Config
	reg   *obsv.Registry
	cache *exp.Journal // in memory when CachePath is empty

	// qmu serializes intake against queue close; draining flips once.
	qmu      sync.Mutex
	queue    chan *Job
	draining atomic.Bool

	jmu  sync.RWMutex
	jobs map[string]*Job
	seq  atomic.Uint64

	inflight atomic.Int64
	// active counts jobs admitted but not yet settled (queued +
	// running); the MaxInflight cap rejects on it.
	active   atomic.Int64
	started  atomic.Bool
	wg       sync.WaitGroup
	drainDo  sync.Once
	drainErr error
}

// New builds a Server (opening the cache journal if configured) but
// does not start its workers; call Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   cfg.Reg,
		queue: make(chan *Job, cfg.QueueDepth),
		jobs:  map[string]*Job{},
	}
	cache, err := exp.OpenJournal(cfg.CachePath, !cfg.CacheReset)
	if err != nil {
		return nil, fmt.Errorf("srv: opening result cache: %w", err)
	}
	s.cache = cache
	return s, nil
}

// CacheLen reports the number of fingerprints in the result cache
// (restored + recorded).
func (s *Server) CacheLen() int { return s.cache.Len() }

// Start launches the worker pool. Safe to call once.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.reg.Gauge("srv.queue.depth").Set(float64(len(s.queue)))
				if s.draining.Load() {
					// Drain: never-started jobs are canceled, not run —
					// "drain in-flight" must not mean "run the backlog".
					job.cancel(time.Now())
					s.active.Add(-1)
					s.reg.Counter("srv.jobs.canceled").Add(1)
					continue
				}
				s.runJob(job)
			}
		}()
	}
}

// Drain performs the graceful-shutdown sequence: stop intake, cancel
// queued jobs, wait (bounded by ctx) for in-flight jobs, then flush
// and close the cache journal. Idempotent; later calls return the
// first outcome.
func (s *Server) Drain(ctx context.Context) error {
	s.drainDo.Do(func() {
		s.qmu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.qmu.Unlock()

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("srv: drain interrupted with %d jobs in flight: %w",
				s.inflight.Load(), ctx.Err())
		}
		// The journal fsyncs per record; Close flushes the handle. Done
		// after the workers stop so every drained job's cells are on disk.
		if err := s.cache.Close(); err != nil && s.drainErr == nil {
			s.drainErr = fmt.Errorf("srv: closing result cache: %w", err)
		}
	})
	return s.drainErr
}

// Draining reports whether the server has begun (or finished)
// draining; /readyz flips on it.
func (s *Server) Draining() bool { return s.draining.Load() }

// errQueueFull and errDraining classify intake rejections.
var (
	errQueueFull = fmt.Errorf("srv: job queue full")
	errDraining  = fmt.Errorf("srv: server is draining")
)

// submit validates a spec and enqueues a job. The returned error is
// nil (job accepted), errQueueFull (backpressure), errDraining, or a
// validation error.
func (s *Server) submit(spec JobSpec) (*Job, error) {
	schemes, err := spec.normalize(s.cfg)
	if err != nil {
		s.reg.Counter("srv.jobs.rejected_invalid").Add(1)
		return nil, err
	}
	if err := fault.Hit(fault.PointSrvAdmit); err != nil {
		s.reg.Counter("srv.jobs.rejected_injected").Add(1)
		return nil, err
	}
	id := fmt.Sprintf("j-%06d", s.seq.Add(1))
	job := newJob(id, spec, schemes, time.Now())

	s.qmu.Lock()
	if s.draining.Load() {
		s.qmu.Unlock()
		s.reg.Counter("srv.jobs.rejected_draining").Add(1)
		return nil, errDraining
	}
	if s.cfg.MaxInflight > 0 && int(s.active.Load()) >= s.cfg.MaxInflight {
		s.qmu.Unlock()
		s.reg.Counter("srv.jobs.rejected_full").Add(1)
		return nil, errQueueFull
	}
	select {
	case s.queue <- job:
		s.active.Add(1)
		s.qmu.Unlock()
	default:
		s.qmu.Unlock()
		s.reg.Counter("srv.jobs.rejected_full").Add(1)
		return nil, errQueueFull
	}

	s.jmu.Lock()
	s.jobs[id] = job
	s.jmu.Unlock()
	s.reg.Counter("srv.jobs.accepted").Add(1)
	s.reg.Gauge("srv.queue.depth").Set(float64(len(s.queue)))
	return job, nil
}

// lookup returns a submitted job by id.
func (s *Server) lookup(id string) (*Job, bool) {
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobsSummary is the GET /v1/jobs payload: lifecycle counts plus the
// most recent job views. It is the one-call answer to "how loaded is
// this node" — the fleet coordinator polls it for load-aware dispatch
// and cobractl's jobs subcommand renders it.
type JobsSummary struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Workers and QueueCap describe the node's capacity; CacheSize is
	// the fingerprint count of its result cache.
	Workers   int `json:"workers"`
	QueueCap  int `json:"queue_cap"`
	CacheSize int `json:"cache_size"`
	// Recent holds the newest jobsSummaryLimit views, newest first,
	// with Results stripped: the list is for dashboards and dispatch
	// decisions, not bulk result transfer (fetch /v1/jobs/{id} for a
	// job's metrics).
	Recent []JobView `json:"recent,omitempty"`
}

// jobsSummaryLimit caps JobsSummary.Recent.
const jobsSummaryLimit = 20

// jobsSummary snapshots the job table.
func (s *Server) jobsSummary() JobsSummary {
	s.jmu.RLock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.View())
	}
	s.jmu.RUnlock()

	sum := JobsSummary{
		Workers:   s.cfg.Workers,
		QueueCap:  s.cfg.QueueDepth,
		CacheSize: s.cache.Len(),
	}
	for i := range views {
		switch views[i].State {
		case JobQueued:
			sum.Queued++
		case JobRunning:
			sum.Running++
		case JobDone:
			sum.Done++
		case JobFailed:
			sum.Failed++
		case JobCanceled:
			sum.Canceled++
		}
		views[i].Results = nil
	}
	// Ids are zero-padded sequence numbers, so lexical order is
	// submission order; newest first.
	sort.Slice(views, func(a, b int) bool { return views[a].ID > views[b].ID })
	if len(views) > jobsSummaryLimit {
		views = views[:jobsSummaryLimit]
	}
	sum.Recent = views
	return sum
}

// timeoutFor resolves a job's effective wall-clock budget.
func (s *Server) timeoutFor(spec JobSpec) time.Duration {
	if spec.TimeoutMS > 0 {
		return time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultJobTimeout
}

// runJob executes one job on the calling worker goroutine: every
// scheme is one exp cell with panic isolation under the job's
// deadline, and every cell goes through the result cache. Streamed
// jobs run their windows sequentially inside one cell, each window
// individually cached and checkpointed.
func (s *Server) runJob(job *Job) {
	job.setRunning(time.Now())
	s.reg.Gauge("srv.jobs.inflight").Set(float64(s.inflight.Add(1)))
	defer func() {
		s.reg.Gauge("srv.jobs.inflight").Set(float64(s.inflight.Add(-1)))
		s.active.Add(-1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), s.timeoutFor(job.spec))
	defer cancel()

	// Every worker runs the stock architecture; the canonical knob
	// order (NUCA, then cores) lives in RunSpec.Arch.
	arch := job.spec.Arch(sim.DefaultArch())
	if job.spec.Kind == exp.KindStream {
		s.runStreamJob(ctx, job, arch)
		return
	}

	var hits, misses atomic.Int64
	// Schemes run serially within the job (workers=1): the service's
	// parallelism unit is the job worker pool, and serial cells keep
	// per-scheme latency attribution exact.
	results, err := exp.MapCells(ctx, 1, len(job.schemes), func(ctx context.Context, i int) (sim.Metrics, error) {
		scheme := job.schemes[i]
		key := job.spec.CellKey("srv", scheme, sim.DefaultArch())
		t := s.reg.Timer("srv.scheme." + scheme.String() + ".wall")
		m, hit, err := s.cache.Do(key, func() (sim.Metrics, error) {
			app, err := exp.BuildApp(job.spec.App, job.spec.Input, job.spec.Scale, job.spec.Seed)
			if err != nil {
				return sim.Metrics{}, err
			}
			m, err := exp.RunScheme(app, scheme.Scheme(), job.spec.Bins, arch)
			if err != nil {
				return sim.Metrics{}, err
			}
			// Completion fault: the simulation finished, but the worker
			// "dies" before the result lands. Firing inside the compute
			// closure guarantees a fired fault discards the metrics and is
			// never cached — the store's error-never-cached contract under
			// test in the backpressure suite.
			if ferr := fault.Hit(fault.PointSrvComplete); ferr != nil {
				return sim.Metrics{}, ferr
			}
			return m, nil
		})
		t.Stop()
		if err == nil {
			s.countCache(hit, &hits, &misses)
		}
		return m, err
	})
	if err != nil {
		s.reg.Counter("srv.jobs.failed").Add(1)
	} else {
		s.reg.Counter("srv.jobs.completed").Add(1)
	}
	job.finish(results, int(hits.Load()), int(misses.Load()), err, time.Now())
}

// runStreamJob executes one streamed job: the windowed engine drives
// the job's single scheme over every window, each window cached and
// checkpointed individually under CellKey.Window (so a killed server
// resumes a re-submitted stream at window granularity from its cache
// journal), and per-window progress lands in the job view and the
// /metrics registry as windows complete. Results carries the one
// MergeMetrics fold; JobView.Windows the per-window metrics.
//
// Every window goes through the cache's Do, so concurrent identical
// stream jobs simulate each window once: the later job joins the
// earlier one's run of the window and applies it functionally.
func (s *Server) runStreamJob(ctx context.Context, job *Job, arch sim.Arch) {
	scheme := job.schemes[0]
	base := job.spec.CellKey("srv", scheme, sim.DefaultArch())
	var hits, misses atomic.Int64
	t := s.reg.Timer("srv.scheme." + scheme.String() + ".wall")
	// The whole streamed run is one exp cell: one panic barrier under
	// the job's deadline, windows sequential inside.
	results, err := exp.MapCells(ctx, 1, 1, func(ctx context.Context, _ int) (sim.Metrics, error) {
		w, err := job.spec.StreamWorkload()
		if err != nil {
			return sim.Metrics{}, err
		}
		r, err := stream.Run(w, stream.Config{
			Scheme: scheme.Scheme(),
			Bins:   job.spec.Bins,
			Arch:   arch,
			Ctx:    ctx,
			Store: func(i int, run func() (sim.Metrics, error)) (sim.Metrics, bool, error) {
				k := base
				k.Window = i + 1
				return s.cache.Do(k, func() (sim.Metrics, error) {
					m, err := run()
					if err == nil {
						// The completion fault fires inside the compute
						// closure, as in runJob: a fired fault discards the
						// window, and Do never stores an error.
						err = fault.Hit(fault.PointSrvComplete)
					}
					return m, err
				})
			},
			OnWindow: func(i int, m sim.Metrics, replayed bool) {
				s.countCache(replayed, &hits, &misses)
				if replayed {
					s.reg.Counter("srv.stream.windows_replayed").Add(1)
				} else {
					s.reg.Counter("srv.stream.windows_done").Add(1)
				}
				s.reg.Gauge("srv.stream.window").Set(float64(i + 1))
				job.windowDone(m)
			},
		})
		if err != nil {
			return sim.Metrics{}, err
		}
		return r.Merged, nil
	})
	t.Stop()
	if err != nil {
		s.reg.Counter("srv.jobs.failed").Add(1)
	} else {
		s.reg.Counter("srv.jobs.completed").Add(1)
	}
	job.finish(results, int(hits.Load()), int(misses.Load()), err, time.Now())
}

// countCache tallies one cell's or window's cache outcome: a hit is a
// stored or joined result, a miss one computed and recorded here.
func (s *Server) countCache(hit bool, hits, misses *atomic.Int64) {
	if hit {
		hits.Add(1)
		s.reg.Counter("srv.cache.hits").Add(1)
	} else {
		misses.Add(1)
		s.reg.Counter("srv.cache.misses").Add(1)
	}
}
