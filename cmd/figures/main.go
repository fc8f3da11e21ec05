// Command figures regenerates the paper's tables and figures on the
// simulated machine (and, for Figure 15, on the host).
//
// Usage:
//
//	figures -all              # everything at the default scale
//	figures -fig 10           # one figure
//	figures -fig 13a -quick   # fast smoke run
//	figures -fig 10 -parallel 1   # force serial cell execution
//	figures -all -checkpoint run.ckpt      # journal completed cells
//	figures -all -checkpoint run.ckpt -resume  # pick up where a run died
//	figures -fig 10 -o fig10.txt  # crash-safe artifact (temp+rename)
//	figures -fig 10 -o fig10.txt -progress -events ev.jsonl  # observability
//	figures -fig 10 -cpuprofile cpu.pprof   # pprof the campaign
//	figures -all -fleet host1:8080,host2:8080  # scatter cells across cobrad workers
//	figures -list
//
// Simulation cells within a figure are independent and run on a
// bounded worker pool; -parallel N bounds it (0 = one worker per CPU,
// 1 = serial). Output is byte-identical at any parallelism — and, with
// -checkpoint/-resume, byte-identical across an interrupted+resumed
// campaign, because replayed cells reproduce their recorded metrics
// exactly.
//
// Observability (all off by default; none of it can change table
// bytes — progress renders to stderr, events and manifests go to
// their own files, and the simulation itself is never touched):
//
//   - -progress: a live stderr line with completed/total cells,
//     journal replays, cells/sec, and an ETA.
//   - -events FILE: a structured JSONL event stream (campaign_start,
//     figure_start/figure_done, cell_done/cell_replay/cell_error with
//     identity and latency).
//   - A run manifest is written next to the -o artifact
//     (<artifact>.manifest.json; override with -manifest PATH, disable
//     with -manifest none): arch fingerprint, Go toolchain,
//     GOMAXPROCS, per-figure durations, and the full metric snapshot —
//     everything needed to diff two runs.
//   - -cpuprofile/-memprofile/-trace: standard pprof/trace hooks.
//
// Distributed campaigns: -fleet host1,host2,... scatters simulation
// cells across cobrad workers (least-loaded dispatch, bounded
// in-flight per node, steal-on-failure, local fallback when no worker
// can take a cell) and gathers results back into the same merge path,
// so the artifact is byte-identical to a local run. See internal/dist.
//
// Fault tolerance:
//
//   - First SIGINT/SIGTERM: stop dispatching new cells, drain the ones
//     in flight, flush the checkpoint journal, and exit 130. A second
//     signal aborts immediately.
//   - A panicking cell becomes a deterministic error naming the cell;
//     the process survives and every other cell still runs.
//   - -o writes the artifact via temp-file + rename: an interrupted or
//     failed campaign never publishes a partial table file.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"syscall"
	"time"

	"cobra/internal/client"
	"cobra/internal/dist"
	"cobra/internal/exp"
	"cobra/internal/fault"
	"cobra/internal/fsx"
	"cobra/internal/obsv"
)

type figureFn func(exp.Opts) (*exp.Table, error)

var figures = map[string]figureFn{
	"2":       exp.Fig2,
	"4":       exp.Fig4,
	"5":       exp.Fig5,
	"t1":      exp.Table1,
	"10":      exp.Fig10,
	"11":      exp.Fig11,
	"12":      exp.Fig12,
	"13a":     exp.Fig13a,
	"13b":     exp.Fig13b,
	"13c":     exp.Fig13c,
	"14":      exp.Fig14,
	"15":      exp.Fig15,
	"scaling": exp.FigScaling,
	"stream":  exp.FigStream,
	"a1":      exp.AblationPrefetcher,
	"a2":      exp.AblationLLCPolicy,
	"a3":      exp.AblationPINV,
	"a4":      exp.AblationMLP,
	"a5":      exp.AblationNoPartition,
	"a6":      exp.AblationNUCA,
}

// order fixes the presentation sequence for -all.
var order = []string{"2", "4", "5", "t1", "10", "11", "12", "13a", "13b", "13c", "14", "15", "scaling", "stream", "a1", "a2", "a3", "a4", "a5", "a6"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flags in, exit code
// out, all writes through the given streams or files named by flags.
func run(argv []string, stdout, stderr io.Writer) int {
	fs, campaign := newCommand(stdout, stderr)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	return campaign()
}

// newCommand declares the flags on a fresh set and returns it with the
// campaign they configure, to run once the set is parsed (tests parse
// the set alone).
func newCommand(stdout, stderr io.Writer) (*flag.FlagSet, func() int) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig         = fs.String("fig", "", "figure to regenerate (2,4,5,t1,10,11,12,13a,13b,13c,14,15,scaling,stream) or ablation (a1..a6)")
		all         = fs.Bool("all", false, "regenerate every figure")
		quick       = fs.Bool("quick", false, "small-scale smoke run")
		list        = fs.Bool("list", false, "list figures, then exit")
		parallel    = fs.Int("parallel", 0, "worker pool size for simulation cells (0 = one per CPU, 1 = serial)")
		checkpoint  = fs.String("checkpoint", "", "journal completed cells to this file (JSONL, fsync'd per cell)")
		resume      = fs.Bool("resume", false, "replay already-completed cells from the -checkpoint journal")
		outPath     = fs.String("o", "", "write tables to this file atomically (temp-file + rename) instead of stdout")
		progress    = fs.Bool("progress", false, "render a live progress line (cells done, replays, cells/sec, ETA) to stderr")
		eventsPath  = fs.String("events", "", "append a structured JSONL event stream to this file")
		manifest    = fs.String("manifest", "auto", `run-manifest path ("auto" = next to -o artifact, "none" = disabled)`)
		cpuProfile  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		tracePath   = fs.String("trace", "", "write a runtime execution trace to this file")
		compactCkpt = fs.Bool("compact-checkpoint", false, "compact the -checkpoint journal (drop superseded duplicates and torn tails), then exit")
		fleet       = fs.String("fleet", "", "comma-separated cobrad worker URLs: scatter servable cells across the fleet (others still run locally)")
	)
	// The spec knobs (-scale, -seed, -cores, -windows, -window-updates)
	// are exp's, shared with cobrasim and cobractl; -cores sets every
	// run's core count except the scaling figure's own core axis.
	knobFlags := exp.BindKnobFlags(fs, exp.RunSpec{Seed: 42, Cores: 1})
	return fs, func() int {
		// Fault injection (COBRA_FAULTS / COBRA_FAULT_SEED) activates before
		// any I/O so the chaos harness can schedule crashes from the very
		// first journal append.
		if _, err := fault.ActivateFromEnv(); err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 2
		}

		if *list {
			keys := make([]string, 0, len(figures))
			for k := range figures {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintln(stdout, "figures:", keys)
			return 0
		}

		if *resume && *checkpoint == "" {
			fmt.Fprintln(stderr, "figures: -resume requires -checkpoint")
			return 2
		}

		// -compact-checkpoint is a standalone maintenance action: rewrite
		// the journal down to one line per cell and exit.
		if *compactCkpt {
			if *checkpoint == "" {
				fmt.Fprintln(stderr, "figures: -compact-checkpoint requires -checkpoint")
				return 2
			}
			kept, dropped, err := exp.CompactJournal(*checkpoint)
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				if errors.Is(err, fsx.ErrDiskFull) {
					return 3
				}
				return 1
			}
			fmt.Fprintf(stderr, "figures: compacted %s: %d cells kept, %d stale lines dropped\n", *checkpoint, kept, dropped)
			return 0
		}

		opts := exp.DefaultOpts()
		if *quick {
			opts = exp.QuickOpts()
		}
		// The numeric knobs validate through the shared RunSpec path (the
		// same bounds cobrad and cobrasim enforce), not a CLI-local copy.
		knobs := knobFlags()
		if err := knobs.NormalizeKnobs(exp.Limits{DefaultScale: opts.Scale}); err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 2
		}
		opts.Scale = knobs.Scale
		opts.Seed = knobs.Seed
		opts.Parallel = *parallel
		opts.StreamWindows = knobs.Windows
		opts.StreamWindowUpdates = knobs.WindowUpdates
		if knobs.Cores > 1 {
			opts.Arch = opts.Arch.WithCores(knobs.Cores)
		}

		// Resolve the manifest destination: explicit path, auto (next to
		// the -o artifact), or disabled.
		manifestPath := ""
		switch *manifest {
		case "none", "":
			// disabled
		case "auto":
			if *outPath != "" {
				manifestPath = *outPath + ".manifest.json"
			}
		default:
			manifestPath = *manifest
		}

		// Observability is enabled iff some sink wants it; the registry is
		// process-global (sim and exp instrument through it) and reset on
		// return so embedding callers (tests) stay isolated.
		var reg *obsv.Registry
		if *progress || *eventsPath != "" || manifestPath != "" {
			reg = obsv.New()
			obsv.SetDefault(reg)
			defer obsv.SetDefault(nil)
		}

		// Profiling hooks (standard pprof/trace plumbing).
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(stderr, "figures: starting CPU profile:", err)
				f.Close()
				return 1
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1
			}
			if err := trace.Start(f); err != nil {
				fmt.Fprintln(stderr, "figures: starting trace:", err)
				f.Close()
				return 1
			}
			defer func() {
				trace.Stop()
				f.Close()
			}()
		}
		if *memProfile != "" {
			defer func() {
				f, err := os.Create(*memProfile)
				if err != nil {
					fmt.Fprintln(stderr, "figures:", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(stderr, "figures: writing heap profile:", err)
				}
			}()
		}

		// Two-stage signal handling: the first SIGINT/SIGTERM cancels the
		// campaign context — workers stop claiming new cells, in-flight
		// cells drain, and every drained cell still lands in the checkpoint
		// journal. A second signal aborts the process immediately.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		sigdone := make(chan struct{})
		defer close(sigdone)
		go func() {
			select {
			case <-sigc:
			case <-sigdone:
				return
			}
			fmt.Fprintln(stderr, "figures: interrupt — draining in-flight cells and flushing the checkpoint (signal again to abort)")
			cancel()
			select {
			case <-sigc:
			case <-sigdone:
				return
			}
			fmt.Fprintln(stderr, "figures: aborted")
			os.Exit(130)
		}()
		opts.Ctx = ctx

		// The campaign's cell store: the -checkpoint journal, or memory. A
		// repeated cell runs (and under -fleet goes out) once either way.
		journal, err := exp.OpenJournal(*checkpoint, *resume)
		if err != nil {
			fmt.Fprintln(stderr, "figures:", err)
			return 1
		}
		if *resume && journal.Len() > 0 {
			fmt.Fprintf(stderr, "figures: resuming — %d completed cells in %s\n", journal.Len(), *checkpoint)
		}
		opts.Journal = journal

		var events *obsv.EventLog
		if *eventsPath != "" {
			var err error
			events, err = obsv.CreateEventLog(*eventsPath)
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 1
			}
			opts.Events = events
		}

		var prog *obsv.Progress
		if *progress {
			prog = obsv.StartProgress(stderr, 0)
			opts.Progress = prog
		}

		// Fleet mode: scatter servable cells across cobrad workers. The
		// coordinator plugs in as opts.Remote, downstream of the cell store
		// (replays and repeats never touch the network) and upstream of the
		// local simulator (declined cells fall back transparently).
		var coord *dist.Coordinator
		if *fleet != "" {
			var err error
			coord, err = dist.New(dist.Config{
				Addrs: strings.Split(*fleet, ","),
				Client: client.Options{
					MaxRetries:       3,
					BaseBackoff:      50 * time.Millisecond,
					MaxBackoff:       time.Second,
					BreakerThreshold: 4,
					BreakerCooldown:  2 * time.Second,
					PollFloor:        5 * time.Millisecond,
					PollInterval:     200 * time.Millisecond,
					Resubmits:        1,
				},
				Reg:    reg,
				Events: events,
			})
			if err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				return 2
			}
			defer coord.Close()
			probeCtx, probeCancel := context.WithTimeout(ctx, 5*time.Second)
			healthy := coord.Probe(probeCtx)
			probeCancel()
			fmt.Fprintf(stderr, "figures: fleet: %d/%d workers healthy\n", healthy, len(coord.Nodes()))
			if healthy == 0 {
				fmt.Fprintln(stderr, "figures: fleet: no worker reachable — cells will run locally until one recovers")
			}
			opts.Remote = coord
		}

		man := obsv.NewManifest("figures")
		man.Scale, man.Seed, man.Parallel = opts.Scale, opts.Seed, exp.Workers(opts.Parallel)
		man.ArchFingerprint = exp.ArchFingerprint(opts.Arch)

		events.Emit("campaign_start", map[string]any{
			"scale": opts.Scale, "seed": opts.Seed, "parallel": exp.Workers(opts.Parallel),
			"arch": man.ArchFingerprint, "checkpoint": *checkpoint, "resume": *resume,
		})

		// Tables accumulate in memory when -o is set, so a failed or
		// interrupted campaign never publishes a partial artifact.
		var out io.Writer = stdout
		var artifact bytes.Buffer
		if *outPath != "" {
			out = &artifact
		}

		campaignStart := time.Now()
		runOne := func(name string) error {
			fn, ok := figures[name]
			if !ok {
				return fmt.Errorf("unknown figure %q", name)
			}
			prog.SetLabel("fig " + name)
			events.Emit("figure_start", map[string]any{"figure": name})
			start := time.Now()
			t, err := fn(opts)
			elapsed := time.Since(start)
			if err != nil {
				events.Emit("figure_error", map[string]any{"figure": name, "error": err.Error()})
				return fmt.Errorf("%s: %w", name, err)
			}
			man.AddFigure(name, elapsed)
			events.Emit("figure_done", map[string]any{"figure": name, "ms": float64(elapsed.Microseconds()) / 1000})
			// Timing goes to stderr: table bytes stay a deterministic
			// function of (scale, seed, arch), which is what makes resumed
			// output byte-identical to an uninterrupted run.
			fmt.Fprintf(stderr, "figures: %s regenerated in %v at scale %d\n",
				name, elapsed.Round(time.Millisecond), opts.Scale)
			t.Fprint(out)
			return nil
		}

		var runErr error
		switch {
		case *all:
			for _, name := range order {
				if runErr = runOne(name); runErr != nil {
					break
				}
			}
		case *fig != "":
			runErr = runOne(*fig)
		default:
			fs.Usage()
			return 2
		}

		prog.Finish()

		if *checkpoint != "" {
			replayed, recorded := journal.Stats()
			fmt.Fprintf(stderr, "figures: checkpoint %s: %d cells replayed, %d newly recorded\n",
				*checkpoint, replayed, recorded)
			man.Checkpoint = &obsv.CheckpointInfo{Path: *checkpoint, Replayed: replayed, Recorded: recorded}
		}
		if err := journal.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("closing checkpoint: %w", err)
		}

		if coord != nil {
			fi := coord.Snapshot()
			man.Fleet = fi
			fmt.Fprintf(stderr, "figures: fleet: %d cells dispatched, %d completed, %d stolen, %d failed\n",
				fi.Dispatched, fi.Completed, fi.Stolen, fi.Failed)
		}

		// Campaign-level derived rates land in the registry before the
		// manifest snapshots it.
		if reg != nil {
			if wall := time.Since(campaignStart).Seconds(); wall > 0 {
				done := reg.Counter("exp.cells.completed").Value()
				reg.Gauge("exp.cells_per_sec").Set(float64(done) / wall)
			}
		}

		status := "ok"
		switch {
		case runErr == nil:
		case errors.Is(runErr, exp.ErrInterrupted):
			status = "interrupted"
		default:
			status = "error"
		}
		events.Emit("campaign_done", map[string]any{
			"status": status, "wall_s": time.Since(campaignStart).Seconds(),
		})
		if err := events.Close(); err != nil && runErr == nil {
			runErr = err
		}

		// The manifest is written even for failed or interrupted campaigns
		// — that is exactly when you want the provenance record — but only
		// the success path publishes the artifact.
		if manifestPath != "" {
			man.Finish(reg)
			if err := man.Write(manifestPath); err != nil {
				fmt.Fprintln(stderr, "figures:", err)
				if runErr == nil {
					runErr = err
				}
			} else {
				fmt.Fprintf(stderr, "figures: wrote manifest %s\n", manifestPath)
			}
		}

		switch {
		case runErr == nil:
			if *outPath != "" {
				if err := fsx.WriteFileAtomicBytes(*outPath, artifact.Bytes()); err != nil {
					fmt.Fprintln(stderr, "figures:", err)
					return 1
				}
				fmt.Fprintf(stderr, "figures: wrote %s (%d bytes)\n", *outPath, artifact.Len())
			}
			return 0
		case errors.Is(runErr, exp.ErrInterrupted):
			msg := "figures: interrupted"
			if *checkpoint != "" {
				msg += fmt.Sprintf("; completed cells saved — re-run with -checkpoint %s -resume to continue", *checkpoint)
			}
			fmt.Fprintln(stderr, msg)
			return 130
		case errors.Is(runErr, fsx.ErrDiskFull):
			// Distinct exit code: operators (and the campaign runner) can
			// tell "free disk space and resume" from a genuine failure.
			fmt.Fprintf(stderr, "figures: disk full: %v\n", runErr)
			return 3
		default:
			fmt.Fprintf(stderr, "figures: %v\n", runErr)
			return 1
		}
	}
}
