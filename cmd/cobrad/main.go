// Command cobrad serves the COBRA/PB simulation substrate as a
// long-running HTTP/JSON daemon: a bounded job queue with
// backpressure, a worker pool over the exp campaign machinery (panic
// isolation, per-job timeouts), a restart-surviving result cache
// keyed by checkpoint cell fingerprints, and Prometheus metrics.
//
// Usage:
//
//	cobrad                                  # listen on :8372
//	cobrad -addr 127.0.0.1:0 -addrfile a    # ephemeral port, address published to a file
//	cobrad -cache results.jsonl             # persistent result cache (fsync'd JSONL)
//	cobrad -workers 4 -queue 128            # pool and backpressure knobs
//
// Endpoints: POST /v1/jobs (async), POST /v1/run (sync), GET
// /v1/jobs/{id}, GET /healthz, GET /readyz, GET /metrics. See the
// README "Service" section for an example curl session.
//
// Shutdown: the first SIGINT/SIGTERM flips /readyz to 503, stops job
// intake (new submissions get 503), cancels queued-but-unstarted
// jobs, drains the jobs in flight, flushes and closes the result
// cache journal, then closes the listener and exits 0. A second
// signal aborts immediately with exit 130.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cobra/internal/fault"
	"cobra/internal/fsx"
	"cobra/internal/obsv"
	"cobra/internal/srv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon behind a testable seam: flags in, exit code out.
// The process-level smoke test re-executes the test binary through it.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cobrad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8372", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile     = fs.String("addrfile", "", "write the bound listen address to this file (atomic; for scripts probing an ephemeral port)")
		workers      = fs.Int("workers", runtime.GOMAXPROCS(0), "job worker pool size")
		queueDepth   = fs.Int("queue", 64, "job queue depth (a full queue answers 429)")
		maxInflight  = fs.Int("max-inflight", 0, "cap on jobs admitted but not yet settled (queued+running); beyond it submissions answer 429 (0 = no cap)")
		cachePath    = fs.String("cache", "", "persist the result cache to this JSONL journal (checkpoint format; resumed on restart)")
		cacheReset   = fs.Bool("cache-reset", false, "truncate an existing -cache file instead of resuming from it")
		defaultScale = fs.Int("scale", 16, "default input scale for jobs that omit one")
		maxScale     = fs.Int("max-scale", 24, "largest scale a job may request")
		jobTimeout   = fs.Duration("job-timeout", 5*time.Minute, "default per-job wall-clock budget")
		maxTimeout   = fs.Duration("max-job-timeout", 30*time.Minute, "largest per-job timeout a job may request")
		drainTimeout = fs.Duration("drain-timeout", 60*time.Second, "how long graceful shutdown waits for in-flight jobs")
		readHdrTO    = fs.Duration("read-header-timeout", 5*time.Second, "per-connection header read deadline (slowloris defense)")
		readTO       = fs.Duration("read-timeout", 30*time.Second, "per-request body read deadline")
		idleTO       = fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "cobrad: unexpected arguments %v\n", fs.Args())
		return 2
	}

	// Fault injection (COBRA_FAULTS / COBRA_FAULT_SEED) activates before
	// the cache journal opens so the chaos harness can schedule crashes
	// at any journal append or admission.
	if _, err := fault.ActivateFromEnv(); err != nil {
		fmt.Fprintln(stderr, "cobrad:", err)
		return 2
	}

	// The service always runs instrumented: /metrics is part of the
	// API. The registry is installed process-wide so the exp and sim
	// layers surface in the same exposition as the srv.* metrics: exp's
	// cell pool (exp.cell.wall, exp.cells.completed/failed), its input
	// memo (exp.inputcache.hits/misses) and sim's per-scheme run metrics
	// (sim.<scheme>.runs, .updates, .wall, ...). The result cache reports
	// through srv.cache.hits/misses; exp's checkpoint counters belong to
	// figures campaigns and never appear here.
	reg := obsv.New()
	obsv.SetDefault(reg)
	defer obsv.SetDefault(nil)

	server, err := srv.New(srv.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		MaxInflight:       *maxInflight,
		DefaultScale:      *defaultScale,
		MaxScale:          *maxScale,
		DefaultJobTimeout: *jobTimeout,
		MaxJobTimeout:     *maxTimeout,
		CachePath:         *cachePath,
		CacheReset:        *cacheReset,
		Reg:               reg,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cobrad:", err)
		return 1
	}
	if *cachePath != "" {
		fmt.Fprintf(stderr, "cobrad: result cache %s: %d cells restored\n", *cachePath, server.CacheLen())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "cobrad:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := fsx.WriteFileAtomicBytes(*addrFile, []byte(bound+"\n")); err != nil {
			fmt.Fprintln(stderr, "cobrad:", err)
			ln.Close()
			return 1
		}
	}

	server.Start()
	// Hardened listener: a client that trickles header bytes (slowloris)
	// or never sends its body is cut off instead of pinning a connection
	// forever. Long sync /v1/run waits survive ReadTimeout because the
	// handler clears the read deadline once the body is fully decoded.
	httpSrv := &http.Server{
		Handler:           server.Handler(),
		ReadHeaderTimeout: *readHdrTO,
		ReadTimeout:       *readTO,
		IdleTimeout:       *idleTO,
	}
	fmt.Fprintf(stderr, "cobrad: listening on %s (workers=%d queue=%d scale<=%d)\n",
		bound, *workers, *queueDepth, *maxScale)

	// Two-stage SIGINT/SIGTERM, mirroring cmd/figures: first signal
	// drains, second aborts.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	drained := make(chan int, 1)
	go func() {
		<-sigc
		fmt.Fprintln(stderr, "cobrad: shutdown — draining in-flight jobs and flushing the result cache (signal again to abort)")
		go func() {
			<-sigc
			fmt.Fprintln(stderr, "cobrad: aborted")
			os.Exit(130)
		}()
		code := 0
		// Order: Drain first (flips /readyz via the draining flag, stops
		// intake, waits for workers, closes the journal) so every
		// accepted job settles; then Shutdown lets in-flight HTTP
		// handlers — sync waiters included — write their responses.
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer dcancel()
		if err := server.Drain(dctx); err != nil {
			fmt.Fprintln(stderr, "cobrad:", err)
			code = 1
		}
		sctx, scancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer scancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fmt.Fprintln(stderr, "cobrad: http shutdown:", err)
			code = 1
		}
		drained <- code
	}()

	select {
	case code := <-drained:
		<-serveErr // Serve has returned ErrServerClosed by now
		fmt.Fprintln(stderr, "cobrad: drained; bye")
		return code
	case err := <-serveErr:
		// Listener failed without a signal (port stolen, fd pressure).
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "cobrad:", err)
			return 1
		}
		return 0
	}
}
