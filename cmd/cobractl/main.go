// Command cobractl is the cobrad control CLI, built on the resilient
// internal/client: every call retries transient failures with jittered
// backoff, honors Retry-After backpressure, and trips a circuit
// breaker instead of hammering a dead server.
//
// Usage:
//
//	cobractl -addr http://127.0.0.1:8372 health
//	cobractl submit -app PageRank -input URAND -schemes Baseline,PB-SW
//	cobractl get j-000001
//	cobractl wait j-000001
//	cobractl run -app PageRank -input URAND -schemes COBRA   # submit + wait + resubmit-on-loss
//	cobractl jobs                                            # queue/running/done counts + recent jobs
//	cobractl fleet run -addrs host1:8372,host2:8372 -app PageRank -input URAND -schemes COBRA
//
// fleet run scatters one cell per scheme across a set of cobrad
// workers through the internal/dist coordinator — the same dispatch,
// steal, and local-fallback machinery `figures -fleet` uses — and an
// optional -journal makes interrupted fleet runs resumable.
//
// run survives a cobrad restart mid-job: a vanished job id (the
// server's job table is in-memory) is resubmitted, and the server's
// fingerprint-keyed result cache makes the resubmission replay already
// computed cells instead of re-simulating them.
//
// Exit codes: 0 job done / healthy; 1 job failed or transport gave up;
// 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cobra/internal/client"
	"cobra/internal/dist"
	"cobra/internal/exp"
	"cobra/internal/sim"
	"cobra/internal/srv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the CLI behind a testable seam: argv in, exit code out.
func run(argv []string, stdout, stderr io.Writer) int {
	fs, command := newCommand(stdout, stderr)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	return command()
}

// newCommand declares the global flags on a fresh set and returns it
// with the subcommand they configure, to run once the set is parsed
// (tests parse the set alone).
func newCommand(stdout, stderr io.Writer) (*flag.FlagSet, func() int) {
	fs := flag.NewFlagSet("cobractl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8372", "cobrad base URL")
		timeout = fs.Duration("timeout", 10*time.Minute, "overall deadline for the command")
		retries = fs.Int("retries", 4, "per-request retry budget for transient failures")
		poll    = fs.Duration("poll", 250*time.Millisecond, "job status poll interval for wait/run")
		jsonOut = fs.Bool("json", false, "print the raw job JSON instead of a summary")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cobractl [flags] <health|submit|get|wait|run|jobs|fleet> [args]")
		fs.PrintDefaults()
	}
	return fs, func() int {
		if fs.NArg() == 0 {
			fs.Usage()
			return 2
		}
		cmd, rest := fs.Arg(0), fs.Args()[1:]

		c := client.New(*addr, client.Options{
			MaxRetries:   *retries,
			PollInterval: *poll,
		})

		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()

		switch cmd {
		case "health":
			if err := c.Health(ctx); err != nil {
				fmt.Fprintln(stderr, "cobractl:", err)
				return 1
			}
			fmt.Fprintln(stdout, "ok")
			return 0

		case "submit":
			spec, code := parseSpec(rest, stderr)
			if code != 0 {
				return code
			}
			v, err := c.Submit(ctx, spec)
			if err != nil {
				fmt.Fprintln(stderr, "cobractl:", err)
				return 1
			}
			return printJob(stdout, v, *jsonOut)

		case "get", "wait":
			if len(rest) != 1 {
				fmt.Fprintf(stderr, "cobractl: %s needs exactly one job id\n", cmd)
				return 2
			}
			var (
				v   srv.JobView
				err error
			)
			if cmd == "get" {
				v, err = c.Get(ctx, rest[0])
			} else {
				v, err = c.Wait(ctx, rest[0])
			}
			if err != nil {
				fmt.Fprintln(stderr, "cobractl:", err)
				return 1
			}
			return printJob(stdout, v, *jsonOut)

		case "run":
			spec, code := parseSpec(rest, stderr)
			if code != 0 {
				return code
			}
			v, err := c.Run(ctx, spec)
			if err != nil {
				fmt.Fprintln(stderr, "cobractl:", err)
				return 1
			}
			return printJob(stdout, v, *jsonOut)

		case "jobs":
			sum, err := c.Jobs(ctx)
			if err != nil {
				fmt.Fprintln(stderr, "cobractl:", err)
				return 1
			}
			if *jsonOut {
				enc := json.NewEncoder(stdout)
				enc.SetIndent("", "  ")
				enc.Encode(sum)
				return 0
			}
			fmt.Fprintf(stdout, "queued=%d running=%d done=%d failed=%d canceled=%d workers=%d queue_cap=%d cache=%d\n",
				sum.Queued, sum.Running, sum.Done, sum.Failed, sum.Canceled, sum.Workers, sum.QueueCap, sum.CacheSize)
			for _, v := range sum.Recent {
				fmt.Fprintf(stdout, "%s\t%s\t%s/%s scale=%d schemes=%s\n",
					v.ID, v.State, v.Spec.App, v.Spec.Input, v.Spec.Scale, strings.Join(sim.SchemeNames(v.Spec.Schemes), ","))
			}
			return 0

		case "fleet":
			if len(rest) == 0 || rest[0] != "run" {
				fmt.Fprintln(stderr, "cobractl: fleet supports exactly one subcommand: run")
				return 2
			}
			return fleetRun(ctx, rest[1:], stdout, stderr, *jsonOut)

		default:
			fmt.Fprintf(stderr, "cobractl: unknown command %q\n", cmd)
			fs.Usage()
			return 2
		}
	}
}

// jobFlags declares submit's and run's flags: the run-spec flags exp
// binds (seed 42; everything else zero or required) and -job-timeout.
func jobFlags(stderr io.Writer) (fs *flag.FlagSet, spec func() (exp.RunSpec, error), jobTO *time.Duration) {
	fs = flag.NewFlagSet("cobractl job", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec = exp.BindFlags(fs, exp.RunSpec{Seed: 42})
	jobTO = fs.Duration("job-timeout", 0, "per-job wall-clock budget (0 = server default)")
	return fs, spec, jobTO
}

// parseSpec parses submit's and run's flags into the canonical
// exp.RunSpec. Full validation happens server-side through the same
// RunSpec.Normalize every other surface uses.
func parseSpec(args []string, stderr io.Writer) (srv.JobSpec, int) {
	fs, parse, jobTO := jobFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return srv.JobSpec{}, 2
	}
	spec, err := parse()
	if err == nil && (spec.App == "" || spec.Input == "" || len(spec.Schemes) == 0) {
		err = errors.New("-app, -input and -schemes are required")
	}
	if err != nil {
		fmt.Fprintln(stderr, "cobractl:", err)
		return srv.JobSpec{}, 2
	}
	return srv.JobSpec{RunSpec: spec, TimeoutMS: jobTO.Milliseconds()}, 0
}

// fleetFlags declares fleet run's flags: the run-spec flags exp binds
// (scale 16, seed 42, cores 1), -addrs and -journal.
func fleetFlags(stderr io.Writer) (fs *flag.FlagSet, spec func() (exp.RunSpec, error), addrs, journal *string) {
	fs = flag.NewFlagSet("cobractl fleet run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec = exp.BindFlags(fs, exp.RunSpec{Scale: 16, Seed: 42, Cores: 1})
	addrs = fs.String("addrs", "", "comma-separated cobrad worker URLs (required)")
	journal = fs.String("journal", "", "cell journal (fsync'd JSONL): every finished cell, fleet or local, is recorded and replayed on rerun")
	return fs, spec, addrs, journal
}

// fleetRun scatters one cell per scheme across a worker fleet via the
// dist coordinator, through a cell store (the -journal file, or
// memory): a recorded cell replays without dispatch. A cell no worker
// can take (fleet down) runs locally — same metrics either way, by the
// coordinator's byte-identity contract.
func fleetRun(ctx context.Context, args []string, stdout, stderr io.Writer, jsonOut bool) int {
	fs, parse, addrs, journal := fleetFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One canonical spec covers every scheme's cell, normalized through
	// the same shared path cobrad uses. A fleet dispatches offline cells
	// only.
	spec, err := parse()
	switch {
	case err != nil:
	case *addrs == "" || spec.App == "" || spec.Input == "" || len(spec.Schemes) == 0:
		err = errors.New("fleet run requires -addrs, -app, -input and -schemes")
	case spec.Kind == exp.KindStream:
		err = errors.New("fleet run dispatches offline cells only; stream with cobractl run -stream")
	default:
		err = spec.Normalize(exp.Limits{})
	}
	if err != nil {
		fmt.Fprintln(stderr, "cobractl:", err)
		return 2
	}

	store, err := exp.OpenJournal(*journal, true)
	if err != nil {
		fmt.Fprintln(stderr, "cobractl:", err)
		return 1
	}
	defer store.Close()
	co, err := dist.New(dist.Config{Addrs: strings.Split(*addrs, ",")})
	if err != nil {
		fmt.Fprintln(stderr, "cobractl:", err)
		return 2
	}
	defer co.Close()
	fmt.Fprintf(stderr, "cobractl: fleet: %d/%d workers healthy\n", co.Probe(ctx), len(co.Nodes()))

	fleet := &fleetCells{Coordinator: co, stderr: stderr}
	o := exp.Opts{Arch: sim.DefaultArch(), Ctx: ctx, Journal: store, Remote: fleet}
	type cellResult struct {
		Scheme  string      `json:"scheme"`
		Remote  bool        `json:"remote"`
		Metrics sim.Metrics `json:"metrics"`
	}
	var results []cellResult
	for _, id := range spec.Schemes {
		fleet.declined = false
		m, _, err := o.Run("fleet", spec, id, nil)
		if err != nil {
			fmt.Fprintln(stderr, "cobractl:", err)
			return 1
		}
		// A replay reports as a fleet cell: its key is one a stock
		// worker serves.
		results = append(results, cellResult{Scheme: id.String(), Remote: !fleet.declined, Metrics: m})
	}

	fi := co.Snapshot()
	fmt.Fprintf(stderr, "cobractl: fleet: %d dispatched, %d completed, %d stolen, %d failed, %d gathered\n",
		fi.Dispatched, fi.Completed, fi.Stolen, fi.Failed, fi.Gathered)
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(results)
		return 0
	}
	for _, r := range results {
		src := "fleet"
		if !r.Remote {
			src = "local"
		}
		fmt.Fprintf(stdout, "%s\tcycles=%.0f\t(%s)\n", r.Scheme, r.Metrics.Cycles, src)
	}
	return 0
}

// fleetCells is the fleet as the runner's exp.RemoteRunner, noting
// whether it declined the cell under way (which then simulates
// locally, on the same metrics by the coordinator's byte-identity
// contract).
type fleetCells struct {
	*dist.Coordinator
	stderr   io.Writer
	declined bool
}

func (f *fleetCells) RunCell(ctx context.Context, k exp.CellKey) (sim.Metrics, bool, error) {
	m, ok, err := f.Coordinator.RunCell(ctx, k)
	if !ok {
		f.declined = true
		fmt.Fprintf(f.stderr, "cobractl: fleet: cell %s declined — simulating locally\n", k.Scheme)
	}
	return m, ok, err
}

// printJob renders one job view: full JSON with -json, otherwise a
// compact human summary. Exit code mirrors the job's fate so scripts
// can chain on it.
func printJob(stdout io.Writer, v srv.JobView, asJSON bool) int {
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	} else {
		fmt.Fprintf(stdout, "%s\t%s", v.ID, v.State)
		if v.State == srv.JobDone {
			fmt.Fprintf(stdout, "\tcache_hits=%d cache_misses=%d", v.CacheHits, v.CacheMisses)
			if len(v.Windows) > 0 {
				fmt.Fprintf(stdout, " windows=%d", len(v.Windows))
			}
			for i, m := range v.Results {
				fmt.Fprintf(stdout, "\n  %s\tcycles=%.0f", v.Spec.Schemes[i], m.Cycles)
			}
		}
		if v.Error != "" {
			fmt.Fprintf(stdout, "\terror=%s", v.Error)
		}
		fmt.Fprintln(stdout)
	}
	switch v.State {
	case srv.JobFailed, srv.JobCanceled:
		return 1
	default:
		return 0
	}
}
