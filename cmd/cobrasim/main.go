// Command cobrasim runs one workload through one or more execution
// schemes on the simulated machine and reports the paper's metrics
// (cycles, phase split, instruction counts, branch misses, cache
// misses, DRAM traffic).
//
// Usage:
//
//	cobrasim -app DegreeCount -input URND -scale 18 -schemes Baseline,PB-SW,COBRA
//	cobrasim -app NeighborPopulate -input KRON -bins 512
//	cobrasim -app DegreeCount -input KRON -cores 16   # sharded multi-core model
//	cobrasim -app StreamIngest -input URND -stream -windows 8   # windowed streaming engine
//	cobrasim -app DegreeCount -input URND -json   # machine-readable metrics
//	cobrasim -list
//
// The flags assemble one canonical exp.RunSpec — the same structure the
// cobrad wire format and the fleet translator use — and validation is
// exp.RunSpec.Normalize, not a CLI-local copy: a spec that validates
// here validates everywhere. An invalid spec exits 2 before any
// simulation runs. -json emits the sim.Metrics slice as JSON — the same
// structs the cobrad service returns, so CLI and API wire formats stay
// aligned.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cobra/internal/exp"
	"cobra/internal/sim"
)

func main() {
	os.Exit(run())
}

// parseSpec assembles the RunSpec from flags and validates it through
// the shared Normalize path. Returns exit code 2 on any usage error, -1
// to proceed.
func parseSpec() (exp.RunSpec, bool, int) {
	var (
		asJSON  = flag.Bool("json", false, "emit the metrics slice as JSON (the cobrad wire format) instead of tables")
		appName = flag.String("app", "DegreeCount", "workload: "+strings.Join(exp.AppNames(), ", "))
		input   = flag.String("input", "URND", "input: "+strings.Join(exp.InputNames(), ", "))
		scale   = flag.Int("scale", 18, "input scale (vertices/keys ~ 2^scale)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		bins    = flag.Int("bins", 0, "PB-SW bin count (0 = sweep for best; fixed epoch default when streaming)")
		schemes = flag.String("schemes", "Baseline,PB-SW,COBRA", "comma-separated schemes")
		nuca    = flag.Bool("nuca", false, "model Table II's 4x4-mesh NUCA latency for the shared LLC")
		cores   = flag.Int("cores", 1, "simulated core count (1 = one core)")
		stream  = flag.Bool("stream", false, "drive the workload through the windowed streaming engine")
		windows = flag.Int("windows", 0, "stream window count (0 = default; needs -stream)")
		winUpd  = flag.Int("window-updates", 0, "updates per stream window (0 = default; needs -stream)")
		list    = flag.Bool("list", false, "list workloads and inputs, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(exp.AppNames(), ", "))
		fmt.Println("inputs:   ", strings.Join(exp.InputNames(), ", "))
		fmt.Println("schemes:  ", strings.Join(exp.SchemeNames(), ", "))
		fmt.Println("streaming:", strings.Join(exp.StreamApps(), ", "), "(with -stream)")
		return exp.RunSpec{}, false, 0
	}

	var ids []sim.SchemeID
	for _, s := range strings.Split(*schemes, ",") {
		id, err := sim.ParseSchemeIDLenient(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cobrasim:", err)
			return exp.RunSpec{}, false, 2
		}
		ids = append(ids, id)
	}
	spec := exp.RunSpec{
		App: *appName, Input: *input, Scale: *scale, Seed: *seed,
		Schemes: ids, Bins: *bins, NUCA: *nuca, Cores: *cores,
		Windows: *windows, WindowUpdates: *winUpd,
	}
	if *stream {
		spec.Kind = exp.KindStream
	}
	// The one shared validation path: a typo in the last scheme, an
	// out-of-range scale, or a stream knob on an offline run must not
	// waste a partial simulation (usage error, exit 2).
	if err := spec.Normalize(exp.Limits{}); err != nil {
		fmt.Fprintln(os.Stderr, "cobrasim:", err)
		return exp.RunSpec{}, false, 2
	}
	return spec, *asJSON, -1
}

func run() int {
	spec, asJSON, code := parseSpec()
	if code >= 0 {
		return code
	}
	if spec.Kind == exp.KindStream {
		return runStream(spec, asJSON)
	}
	return runOffline(spec, asJSON)
}

// runOffline is the historical path: one static cell per scheme.
func runOffline(spec exp.RunSpec, asJSON bool) int {
	app, err := exp.BuildApp(spec.App, spec.Input, spec.Scale, spec.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobrasim:", err)
		return 1
	}
	arch := spec.Arch(sim.DefaultArch())
	if !asJSON {
		fmt.Printf("%s on %s: %d keys, %d updates, %d B tuples, commutative=%v\n\n",
			app.Name, app.InputName, app.NumKeys, app.NumUpdates, app.TupleBytes, app.Commutative)
	}

	var results []sim.Metrics
	var base *sim.Metrics
	failed := false
	for _, id := range spec.Schemes {
		m, err := exp.RunScheme(app, id.Scheme(), spec.Bins, arch)
		if err != nil {
			// Scheme names were validated up front; failures here are
			// applicability errors (e.g. COBRA-COMM on a non-commutative
			// app). Report and keep going so the valid schemes still run.
			fmt.Fprintf(os.Stderr, "cobrasim: %s: %v\n", id, err)
			failed = true
			continue
		}
		results = append(results, m)
		if m.Scheme == sim.SchemeBaseline {
			base = &results[len(results)-1]
		}
	}
	return render(results, base, asJSON, failed)
}

// runStream drives each scheme through the windowed streaming engine
// and reports the merged (MergeMetrics-folded) metrics per scheme.
func runStream(spec exp.RunSpec, asJSON bool) int {
	o := exp.DefaultOpts()
	o.Scale, o.Seed = spec.Scale, spec.Seed
	if !asJSON {
		w, err := spec.StreamWorkload()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cobrasim:", err)
			return 1
		}
		fmt.Printf("%s on %s: %d keys, %d windows x %d updates (streamed)\n\n",
			w.Name, w.InputName, w.NumKeys, w.Windows, w.WindowUpdates)
	}

	var results []sim.Metrics
	var base *sim.Metrics
	failed := false
	for _, id := range spec.Schemes {
		r, err := exp.RunStream(o, "cli", spec, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cobrasim: %s: %v\n", id, err)
			failed = true
			continue
		}
		results = append(results, r.Merged)
		if r.Merged.Scheme == sim.SchemeBaseline {
			base = &results[len(results)-1]
		}
	}
	return render(results, base, asJSON, failed)
}

// render emits the metrics slice as JSON or the two human tables.
func render(results []sim.Metrics, base *sim.Metrics, asJSON, failed bool) int {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "cobrasim:", err)
			return 1
		}
		if failed {
			return 1
		}
		return 0
	}

	fmt.Printf("%-12s %12s %10s %12s %12s %12s %8s %9s %8s\n",
		"scheme", "cycles", "speedup", "init", "binning", "accumulate", "bins", "instr", "brMiss%")
	for _, m := range results {
		speedup := "-"
		if base != nil && m.Cycles > 0 {
			speedup = fmt.Sprintf("%.2fx", base.Cycles/m.Cycles)
		}
		fmt.Printf("%-12s %12.3e %10s %12.3e %12.3e %12.3e %8d %9.2e %8.2f\n",
			m.Scheme, m.Cycles, speedup, m.InitCycles, m.BinCycles, m.AccumCycles,
			m.NumBins, float64(m.Ctr.Instructions), 100*m.Ctr.BranchMissRate())
	}
	fmt.Println()
	for _, m := range results {
		fmt.Printf("%-12s L1miss=%9d L2miss=%9d LLCmiss=%9d LLCmissRate=%.3f DRAM rd/wr lines=%d/%d\n",
			m.Scheme, m.L1Misses, m.L2Misses, m.LLCMisses, m.LLCMissRate,
			m.DRAM.ReadLines, m.DRAM.WriteLines)
	}
	if failed {
		return 1
	}
	return 0
}
