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
// The run-spec flags are exp.BindFlags's — the same names, help and
// scheme-list rule as cobractl's — and assemble one canonical
// exp.RunSpec, the structure the cobrad wire format and the fleet
// translator use. Validation is
// exp.RunSpec.Normalize, not a CLI-local copy: a spec that validates
// here validates everywhere. An invalid spec exits 2 before any
// simulation runs. -json emits the sim.Metrics slice as JSON — the same
// structs the cobrad service returns, so CLI and API wire formats stay
// aligned.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cobra/internal/exp"
	"cobra/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaults are cobrasim's run-spec flag defaults.
var defaults = exp.RunSpec{
	App: "DegreeCount", Input: "URND", Scale: 18, Seed: 42,
	Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDCOBRA},
	Cores:   1,
}

// newFlags declares cobrasim's flags on a fresh set: the run-spec
// flags exp binds, -json and -list. spec assembles the run after
// fs.Parse.
func newFlags(stderr io.Writer) (fs *flag.FlagSet, spec func() (exp.RunSpec, error), asJSON, list *bool) {
	fs = flag.NewFlagSet("cobrasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec = exp.BindFlags(fs, defaults)
	asJSON = fs.Bool("json", false, "emit the metrics slice as JSON (the cobrad wire format) instead of tables")
	list = fs.Bool("list", false, "list workloads and inputs, then exit")
	return fs, spec, asJSON, list
}

// run is the CLI behind a testable seam: argv in, exit code out.
func run(argv []string, stdout, stderr io.Writer) int {
	fs, parse, asJSON, list := newFlags(stderr)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, "workloads:", strings.Join(exp.AppNames(), ", "))
		fmt.Fprintln(stdout, "inputs:   ", strings.Join(exp.InputNames(), ", "))
		fmt.Fprintln(stdout, "schemes:  ", strings.Join(sim.SchemeNames(sim.SchemeIDs()), ", "))
		fmt.Fprintln(stdout, "streaming:", strings.Join(exp.StreamApps(), ", "), "(with -stream)")
		return 0
	}
	// The one shared validation path: a typo in the last scheme, an
	// out-of-range scale, or a stream knob on an offline run must not
	// waste a partial simulation (usage error, exit 2).
	spec, err := parse()
	if err == nil {
		err = spec.Normalize(exp.Limits{})
	}
	if err != nil {
		fmt.Fprintln(stderr, "cobrasim:", err)
		return 2
	}
	header, err := describe(spec)
	if err != nil {
		fmt.Fprintln(stderr, "cobrasim:", err)
		return 1
	}
	if !*asJSON {
		fmt.Fprint(stdout, header)
	}

	o := exp.Opts{Arch: sim.DefaultArch()}
	var results []sim.Metrics
	var base *sim.Metrics
	failed := false
	for _, id := range spec.Schemes {
		// A streamed scheme reports its merged (MergeMetrics-folded)
		// metrics.
		m, _, err := o.Run("cli", spec, id, nil)
		if err != nil {
			// Scheme names were validated up front; failures here are
			// applicability errors (e.g. COBRA-COMM on a non-commutative
			// app). Report and keep going so the valid schemes still run.
			fmt.Fprintf(stderr, "cobrasim: %s: %v\n", id, err)
			failed = true
			continue
		}
		results = append(results, m)
		if m.Scheme == sim.SchemeBaseline {
			base = &results[len(results)-1]
		}
	}
	return render(stdout, stderr, results, base, *asJSON, failed)
}

// describe renders the header line naming the workload the spec runs.
func describe(spec exp.RunSpec) (string, error) {
	if spec.Kind == exp.KindStream {
		w, err := spec.StreamWorkload()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s on %s: %d keys, %d windows x %d updates (streamed)\n\n",
			w.Name, w.InputName, w.NumKeys, w.Windows, w.WindowUpdates), nil
	}
	app, err := exp.BuildApp(spec.App, spec.Input, spec.Scale, spec.Seed)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s on %s: %d keys, %d updates, %d B tuples, commutative=%v\n\n",
		app.Name, app.InputName, app.NumKeys, app.NumUpdates, app.TupleBytes, app.Commutative), nil
}

// render emits the metrics slice as JSON or the two human tables.
func render(stdout, stderr io.Writer, results []sim.Metrics, base *sim.Metrics, asJSON, failed bool) int {
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(stderr, "cobrasim:", err)
			return 1
		}
		if failed {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "%-12s %12s %10s %12s %12s %12s %8s %9s %8s\n",
		"scheme", "cycles", "speedup", "init", "binning", "accumulate", "bins", "instr", "brMiss%")
	for _, m := range results {
		speedup := "-"
		if base != nil && m.Cycles > 0 {
			speedup = fmt.Sprintf("%.2fx", base.Cycles/m.Cycles)
		}
		fmt.Fprintf(stdout, "%-12s %12.3e %10s %12.3e %12.3e %12.3e %8d %9.2e %8.2f\n",
			m.Scheme, m.Cycles, speedup, m.InitCycles, m.BinCycles, m.AccumCycles,
			m.NumBins, float64(m.Ctr.Instructions), 100*m.Ctr.BranchMissRate())
	}
	fmt.Fprintln(stdout)
	for _, m := range results {
		fmt.Fprintf(stdout, "%-12s L1miss=%9d L2miss=%9d LLCmiss=%9d LLCmissRate=%.3f DRAM rd/wr lines=%d/%d\n",
			m.Scheme, m.L1Misses, m.L2Misses, m.LLCMisses, m.LLCMissRate,
			m.DRAM.ReadLines, m.DRAM.WriteLines)
	}
	if failed {
		return 1
	}
	return 0
}
