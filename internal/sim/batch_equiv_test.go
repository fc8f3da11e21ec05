package sim_test

// Differential tests pinning the batched op pipeline (Mach.B over
// mem.AccessBatch) to the scalar per-reference oracle: every Metrics
// field of every scheme must be bit-identical under
// Arch.WithScalarRefs().

import (
	"fmt"
	"reflect"
	"testing"

	"cobra/internal/exp"
	"cobra/internal/mem"
	"cobra/internal/sim"
	"cobra/internal/simtest"
)

// runAll executes every scheme (including the COBRA variants with
// distinctive machinery: coalescing, bin regrouping, no-partition, and
// Figure 13's eviction-buffer, way-reservation and context-switch
// knobs) and returns the metrics keyed by a descriptive name.
func runAll(t *testing.T, arch sim.Arch) map[string]sim.Metrics {
	t.Helper()
	out := map[string]sim.Metrics{}
	for _, dist := range simtest.Dists() {
		app, _ := simtest.CountAppDist(dist, 1<<13, 30000, 77)
		base, err := sim.RunBaseline(app, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["base/"+dist.String()] = base
		pb, err := sim.RunPBSW(app, 64, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["pbsw/"+dist.String()] = pb
		cob, err := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["cobra/"+dist.String()] = cob
	}
	app, _ := simtest.CountApp(1<<13, 30000, 78)
	comm, err := sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-comm"] = comm
	regroup, err := sim.RunCOBRA(app, sim.CobraOpt{MaxLLCBufs: 16}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-regroup"] = regroup
	nopart, err := sim.RunCOBRA(app, sim.CobraOpt{NoPartition: true, SkipAccum: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-nopart"] = nopart
	for name, opt := range map[string]sim.CobraOpt{
		"cobra-evict2":   {EvictBufL1L2: 2, SkipAccum: true},
		"cobra-rsv":      {ReserveL1: 6, ReserveL2: 1, ReserveLLC: 15},
		"cobra-quantum":  {CtxSwitchQuantum: 26_600},
		"cobracomm-rsv2": {Coalesce: true, ReserveL2: 2, CtxSwitchQuantum: 266_000},
	} {
		m, err := sim.RunCOBRA(app, opt, arch)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	phi, err := sim.RunPHI(app, 64, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["phi"] = phi
	return out
}

// TestBatchedPipelineMatchesScalar is the whole-simulation analogue of
// the mem/cpu layer differential tests: Metrics — cycles (float64,
// compared exactly), phase deltas, counters, traffic — must not differ
// in any bit between the batched pipeline and the scalar oracle.
func TestBatchedPipelineMatchesScalar(t *testing.T) {
	batched := runAll(t, sim.DefaultArch())
	scalar := runAll(t, sim.DefaultArch().WithScalarRefs())
	if len(batched) != len(scalar) {
		t.Fatalf("scheme sets differ: %d vs %d", len(batched), len(scalar))
	}
	for name, b := range batched {
		s, ok := scalar[name]
		if !ok {
			t.Fatalf("missing scalar run %q", name)
		}
		if !reflect.DeepEqual(b, s) {
			t.Errorf("%s: batched metrics diverge from scalar oracle\nbatched: %+v\nscalar:  %+v", name, b, s)
		}
	}
}

// TestBatchedPipelineMatchesScalarNUCA repeats the check with NUCA hop
// latencies enabled (the one place LLC/DRAM load timing depends on the
// address, exercising the replay's hoisted NUCA math).
func TestBatchedPipelineMatchesScalarNUCA(t *testing.T) {
	arch := sim.DefaultArch()
	arch.Mem.NUCA = mem.DefaultNUCA()
	app, _ := simtest.CountApp(1<<13, 30000, 79)
	for _, scheme := range []string{"base", "pbsw"} {
		var b, s sim.Metrics
		var err1, err2 error
		switch scheme {
		case "base":
			b, err1 = sim.RunBaseline(app, arch)
			s, err2 = sim.RunBaseline(app, arch.WithScalarRefs())
		default:
			b, err1 = sim.RunPBSW(app, 64, arch)
			s, err2 = sim.RunPBSW(app, 64, arch.WithScalarRefs())
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(b, s) {
			t.Errorf("%s under NUCA: batched diverges from scalar", scheme)
		}
	}
}

// figureCell is one simulation cell of Figure 10 or Table I.
type figureCell struct {
	app, input string
	scheme     sim.Scheme
	bins       int
}

// figureCells enumerates the cells Figure 10 (every suite pair's
// Baseline, PB-SW bin sweep and COBRA) and Table I (Neighbor-Populate
// PB-SW at 64 and 4096 bins) run, with the apps they run on.
func figureCells(t *testing.T, scale int, seed uint64) ([]figureCell, map[string]*sim.App) {
	t.Helper()
	apps := map[string]*sim.App{}
	build := func(app, input string) *sim.App {
		key := app + "/" + input
		if apps[key] == nil {
			a, err := exp.BuildApp(app, input, scale, seed)
			if err != nil {
				t.Fatal(err)
			}
			apps[key] = a
		}
		return apps[key]
	}
	var cells []figureCell
	for _, p := range exp.DefaultSuite() {
		app := build(p.App, p.Input)
		cells = append(cells, figureCell{p.App, p.Input, sim.SchemeBaseline, 0})
		swept := false
		for _, b := range exp.BinSweep {
			if b > app.NumKeys {
				break
			}
			cells = append(cells, figureCell{p.App, p.Input, sim.SchemePBSW, b})
			swept = true
		}
		if !swept {
			cells = append(cells, figureCell{p.App, p.Input, sim.SchemePBSW, 1})
		}
		cells = append(cells, figureCell{p.App, p.Input, sim.SchemeCOBRA, 0})
	}
	build("NeighborPopulate", "KRON")
	for _, b := range []int{64, 4096} {
		cells = append(cells, figureCell{"NeighborPopulate", "KRON", sim.SchemePBSW, b})
	}
	return cells, apps
}

// TestFigureCellsMatchScalar extends the equivalence to the workloads
// the headline artifacts are built from: every Figure 10 and Table I
// cell at scale 12, on 1 and 4 cores, must produce identical Metrics
// on the batched pipeline and on the scalar oracle — so the figure
// tables derived from them are byte-identical too.
func TestFigureCellsMatchScalar(t *testing.T) {
	cells, apps := figureCells(t, 12, 42)
	for _, cores := range []int{1, 4} {
		arch := sim.DefaultArch().WithCores(cores)
		scalarArch := arch.WithScalarRefs()
		for _, c := range cells {
			name := fmt.Sprintf("%s/%s/%s/bins=%d/cores=%d", c.app, c.input, c.scheme, c.bins, cores)
			app := apps[c.app+"/"+c.input]
			b, err := exp.RunScheme(app, c.scheme, c.bins, arch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s, err := exp.RunScheme(app, c.scheme, c.bins, scalarArch)
			if err != nil {
				t.Fatalf("%s scalar: %v", name, err)
			}
			if !reflect.DeepEqual(b, s) {
				t.Errorf("%s: batched metrics diverge from scalar oracle\nbatched: %+v\nscalar:  %+v", name, b, s)
			}
		}
	}
}
