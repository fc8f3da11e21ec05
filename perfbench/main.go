// Command perfbench is the repository's benchmark: it drives the
// simulator's packages through their public functions on four
// workloads, times them from outside, checks that their outputs are
// correct, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"cpu_s": {"value": 9.7, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run (obsv registry on, spans around every layer call,
// layer probes) reports the per-layer ones. See README.md.
//
// Usage (from the repository root; run.py builds and runs this):
//
//	perfbench --workload campaign-s14|miss-s17-4c|stream-smallwin|cobrad-mix|all \
//	          --seed N --seconds S --trace 0|1 [--results DIR]
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees that hold up on a
// shared host, reported by every workload in untraced runs. Times are
// user+sys CPU: on a shared VM the hypervisor steals a varying share of
// each vCPU, which moves wall times run to run by far more than any
// bound could allow, while the CPU a run spends stays put. Wall times
// and latencies are reported as extras, outside the gate.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of the traced run. Every traced
// run reports all of them; a metric whose layer the workload does not
// exercise reads 0 (sim.shard_imbalance reads 1).
var perLayer = []metricDef{
	{"exp.input_gen_s", "s", "lower"},
	{"exp.build_app_s", "s", "lower"},
	{"exp.pbsw_sweep_s", "s", "lower"},
	{"exp.journal.record_us", "us", "lower"},
	{"sim.baseline.ns_per_update", "ns", "lower"},
	{"sim.pbsw.init.ns_per_update", "ns", "lower"},
	{"sim.pbsw.binning.ns_per_update", "ns", "lower"},
	{"sim.pbsw.accumulate.ns_per_update", "ns", "lower"},
	{"sim.cobra.init.ns_per_update", "ns", "lower"},
	{"sim.cobra.binning.ns_per_update", "ns", "lower"},
	{"sim.cobra.accumulate.ns_per_update", "ns", "lower"},
	{"sim.phi.binning.ns_per_update", "ns", "lower"},
	{"sim.phi.accumulate.ns_per_update", "ns", "lower"},
	{"sim.ns_per_instr", "ns", "lower"},
	{"sim.shard_imbalance", "ratio", "lower"},
	{"sim.cycles", "count", "lower"},
	{"cpu.instructions", "count", "lower"},
	{"cpu.branch_misses", "count", "lower"},
	{"cpu.bin_updates", "count", "lower"},
	{"mem.l1_misses", "count", "lower"},
	{"mem.l2_misses", "count", "lower"},
	{"mem.llc_misses", "count", "lower"},
	{"mem.dram_lines", "count", "lower"},
	{"mem.access_batch.ns_per_ref", "ns", "lower"},
	{"cache.access.ns_per_op", "ns", "lower"},
	{"cpu.opbuf.ns_per_op", "ns", "lower"},
	{"stream.window_fixed_ms", "ms", "lower"},
	{"stream.offline_ns_per_update", "ns", "lower"},
	{"srv.queue_wait_ms", "ms", "lower"},
	{"srv.cold_run_ms", "ms", "lower"},
	{"srv.warm_run_ms", "ms", "lower"},
	{"srv.http_ms", "ms", "lower"},
	{"srv.cache_hit_ratio", "ratio", "higher"},
	{"srv.rejected", "count", "lower"},
	{"host.alloc_mb", "MB", "lower"},
	{"obsv.trace_overhead_frac", "ratio", "lower"},
	{"trace.span_coverage", "ratio", "higher"},
}

// runConfig is what every workload runner is built from.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool   // self-test sizes; never compared with the reference
	dir     string // results directory ("" in self-tests)
}

// passCtx is one pass's measurement context.
type passCtx struct {
	tr        *tracer // nil when untraced
	attempted int     // operations attempted
	failed    int     // operations that failed (error, non-200)
}

// runner is one workload's instance for one run.
type runner interface {
	// setup builds what the timed phase needs (inputs, apps, oracles,
	// servers). It is timed as set-up and runs several times.
	setup() error
	// reset restores the state a pass must start from, untimed; reg is
	// the registry the next pass reports into (nil when untraced).
	reset(reg *obsv.Registry) error
	// pass runs one timed unit of the workload.
	pass(p *passCtx) error
	// verify checks the outputs of every pass run so far.
	verify(c *checks) error
	// simMetrics returns the simulated results of the last pass.
	simMetrics() []sim.Metrics
	// extras are workload-specific end-to-end figures for the report.
	extras() []reportRow
	// probes measures single layers after the traced pass.
	probes(tr *tracer, out map[string]float64) error
	// close releases servers, temp files and the exp memos.
	close()
}

// workloadDef describes one workload.
type workloadDef struct {
	name, why string
	newRunner func(cfg runConfig) runner
	// setupReps is how many set-ups a run times; setup_s is their
	// median. Cheap set-ups repeat more, to steady the median.
	setupReps int
}

var workloads = []workloadDef{
	{"campaign-s14", "exp.Fig10 at scale 14 on 1 simulated core and one exp worker: the headline campaign, cache-resident, bin-sweep heavy", newCampaign, 5},
	{"miss-s17-4c", "Transpose/RAND and NeighborPopulate/URND at scale 17 on 4 simulated cores: the miss path, DRAM model and multi-core gang", newMiss, 5},
	{"stream-smallwin", "the FigStream cell set at scale 14 as 128 windows of 2048 updates: per-window set-up dominates; the only PHI runs", newStreamWL, 3},
	{"cobrad-mix", "in-process cobrad, 2 workers, journaled cache, 2 closed-loop clients: fleet suite cells and documented cobractl jobs (cold), repeats (warm), stream jobs", newCobrad, 5},
}

// reportRow is one metric with its unit and sample count.
type reportRow struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string      `json:"workload"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Metrics   []reportRow `json:"metrics"`
	Extras    []reportRow `json:"extras,omitempty"`
	Spans     []span      `json:"spans,omitempty"`
	Passes    int         `json:"passes"`
	SetupS    []float64   `json:"setup_s_samples"`
	WallS     []float64   `json:"wall_s_samples"`
	CPUS      []float64   `json:"cpu_s_samples"`
	RSSScoped bool        `json:"peak_rss_scoped"`
	// StealFrac is the share of the host's CPU time the hypervisor stole
	// during the run (all vCPUs): how much wall times are to be trusted.
	StealFrac float64 `json:"steal_frac"`
}

// runWorkload runs one workload: timed set-ups, timed passes for the
// requested seconds, then (traced runs) one traced pass and the layer
// probes, then the correctness checks.
func runWorkload(def workloadDef, cfg runConfig) (*result, error) {
	r := def.newRunner(cfg)
	defer r.close()
	res := &result{Workload: def.name}

	steal0 := stealTicks()
	var setups, setupWalls []float64
	for i := 0; i < def.setupReps; i++ {
		runtime.GC() // start every timed phase from a collected heap
		c0, t0 := cpuNow(), time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		setups = append(setups, (cpuNow() - c0).Seconds())
	}

	pc := &passCtx{}
	var walls, cpus, peaks []float64
	alloc0 := allocMB()
	for i := 0; ; i++ {
		if i > 0 {
			if err := r.reset(nil); err != nil {
				return nil, fmt.Errorf("reset before pass %d: %w", i+1, err)
			}
		}
		// Each pass's peak RSS is read on its own (what set-up left
		// resident counts); peak_rss_mb is their median, so one badly
		// timed collection does not set it.
		res.RSSScoped = resetPeakRSS()
		c0, t0 := cpuNow(), time.Now()
		if err := r.pass(pc); err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuNow() - c0).Seconds())
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		if cfg.trace {
			break // one untraced pass: the base of the tracing overhead
		}
		// Start another pass only if it is expected to end within half
		// a pass of the requested measuring time.
		var spent float64
		for _, w := range walls {
			spent += w
		}
		if spent+median(walls)/2 > cfg.seconds {
			break
		}
	}
	res.Passes = len(walls)
	res.SetupS, res.WallS, res.CPUS = setups, walls, cpus
	res.StealFrac = stealFrac(steal0, stealTicks())
	alloc := allocMB() - alloc0
	res.Attempted, res.Failed = pc.attempted, pc.failed

	var ck checks
	if !cfg.trace {
		if pc.attempted == 0 {
			return nil, errors.New("no operations measured")
		}
		res.Metrics = []reportRow{
			{"setup_s", median(setups), "s", len(setups)},
			{"cpu_s", median(cpus), "s", len(cpus)},
			{"peak_rss_mb", median(peaks), "MB", len(peaks)},
		}
		res.Extras = append([]reportRow{
			{"setup_wall_s", median(setupWalls), "s", len(setupWalls)},
			{"wall_s", median(walls), "s", len(walls)},
		}, r.extras()...)
	} else {
		layers, tr, err := tracedRun(r, walls[0])
		if err != nil {
			return nil, err
		}
		layers["host.alloc_mb"] = alloc
		cov := layers["trace.span_coverage"]
		ck.expect(cov >= 0.9, "spans cover %.1f%% of the traced pass, want >= 90%%", 100*cov)
		for _, d := range perLayer {
			res.Metrics = append(res.Metrics, reportRow{d.name, layers[d.name], d.unit, 1})
		}
		res.Spans = tr.spans
	}

	if err := r.verify(&ck); err != nil {
		return nil, fmt.Errorf("checking outputs: %w", err)
	}
	res.Attempted += ck.attempted
	res.Failed += ck.failed
	res.Failures = ck.msgs
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	if res.Attempted == 0 {
		return nil, errors.New("nothing attempted")
	}
	return res, nil
}

// tracedRun runs one pass with the obsv registry on and spans around
// every layer call, derives the sim layers from it, then runs the
// workload's layer probes.
func tracedRun(r runner, untracedWall float64) (map[string]float64, *tracer, error) {
	reg := obsv.New()
	if err := r.reset(reg); err != nil {
		return nil, nil, fmt.Errorf("reset before traced pass: %w", err)
	}
	resetPeakRSS() // same starting heap as the untraced pass
	tr := newTracer()
	tp := &passCtx{tr: tr}
	obsv.SetDefault(reg)
	t0 := tr.since()
	err := r.pass(tp)
	t1 := tr.since()
	obsv.SetDefault(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	if tp.failed > 0 {
		return nil, nil, fmt.Errorf("traced pass: %d of %d operations failed", tp.failed, tp.attempted)
	}
	layers := map[string]float64{}
	simLayers(reg, r.simMetrics(), layers)
	layers["trace.span_coverage"] = tr.coverage(t0, t1)
	layers["obsv.trace_overhead_frac"] = (t1-t0)/untracedWall - 1
	if err := r.probes(tr, layers); err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	return layers, tr, nil
}

// machine is the host block every result carries.
type machine struct {
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Samples    map[string]int `json:"samples"` // per workload: passes
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := fs.Float64("seconds", 10, "measuring time per workload")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	dir := fs.String("results", filepath.Join(".bench_build", "results"), "directory for result files and cross-run digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	var defs []workloadDef
	if *name == "all" {
		defs = workloads
	} else if d, ok := findWorkload(*name); ok {
		defs = []workloadDef{d}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	mach := machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Samples: map[string]int{},
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}

	var results []*result
	for _, d := range defs {
		fmt.Fprintf(stderr, "perfbench: running %s (seed %d, trace %d)\n", d.name, *seed, *trace)
		res, err := runWorkload(d, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s failed: %v\n", d.name, err)
			return 1
		}
		mach.Samples[d.name] = res.Passes
		results = append(results, res)
	}

	printReport(stdout, mach, results)
	path := filepath.Join(*dir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeResults(path, mach, results); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, correct := summaryLine(results, len(defs) > 1)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// summaryLine renders the final JSON line. With several workloads the
// metric names are prefixed by the workload.
func summaryLine(results []*result, prefix bool) (string, bool) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if prefix {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = val{m.Value, m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}, "error": %q}`, err.Error()), false
	}
	return string(b), out.Correct
}

func printReport(w io.Writer, mach machine, results []*result) {
	fmt.Fprintf(w, "machine: nproc=%d gomaxprocs=%d %s cpu=%q seed=%d seconds=%g trace=%v\n",
		mach.NumCPU, mach.GOMAXPROCS, mach.GoVersion, mach.CPUModel, mach.Seed, mach.Seconds, mach.Trace)
	for _, r := range results {
		errRate := float64(r.Failed) / float64(r.Attempted)
		fmt.Fprintf(w, "%s: passes=%d attempted=%d failed=%d error_rate=%.4f steal=%.3f peak_rss_scoped=%v\n",
			r.Workload, r.Passes, r.Attempted, r.Failed, errRate, r.StealFrac, r.RSSScoped)
		rows := append(append([]reportRow(nil), r.Metrics...), r.Extras...)
		for _, m := range rows {
			fmt.Fprintf(w, "  %-38s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		}
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
}

func writeResults(path string, mach machine, results []*result) error {
	b, err := json.MarshalIndent(struct {
		Machine machine   `json:"machine"`
		Results []*result `json:"results"`
	}{mach, results}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}
