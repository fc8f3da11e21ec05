package sim_test

// Differential tests pinning the fast walk (mem.Hierarchy.Access with
// its verified location hints and inline L1/L2) to the scalar oracle
// (the same machine with its hierarchy on the scalar cache.Cache walk,
// Arch.WithScalarWalk()): every Metrics field of every scheme must be
// bit-identical. The mem package's tests and fuzzer pin the walk
// reference by reference; what these tests catch is a divergence that
// only a whole run's reference mix, way reservations, scalar Store
// calls (COBRA's NoPartition insert) and recycled machines bring out.
// (The tests keep the names they had when the fast side batched its
// micro-ops.)

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
// in any bit between the fast walk and the scalar-walk oracle.
func TestBatchedPipelineMatchesScalar(t *testing.T) {
	fast := runAll(t, sim.DefaultArch())
	oracle := runAll(t, sim.DefaultArch().WithScalarWalk())
	if len(fast) != len(oracle) {
		t.Fatalf("scheme sets differ: %d vs %d", len(fast), len(oracle))
	}
	for name, b := range fast {
		s, ok := oracle[name]
		if !ok {
			t.Fatalf("missing scalar-walk run %q", name)
		}
		if !reflect.DeepEqual(b, s) {
			t.Errorf("%s: fast-walk metrics diverge from scalar-walk oracle\nfast:   %+v\noracle: %+v", name, b, s)
		}
	}
}

// TestBatchedPipelineMatchesScalarNUCA repeats the check with NUCA hop
// latencies enabled (the one place LLC/DRAM load timing depends on the
// address, exercising the core's hoisted latencies), on every scheme.
func TestBatchedPipelineMatchesScalarNUCA(t *testing.T) {
	arch := sim.DefaultArch()
	arch.Mem.NUCA = mem.DefaultNUCA()
	app, _ := simtest.CountApp(1<<13, 30000, 79)
	runs := map[string]func(sim.Arch) (sim.Metrics, error){
		"base":  func(a sim.Arch) (sim.Metrics, error) { return sim.RunBaseline(app, a) },
		"pbsw":  func(a sim.Arch) (sim.Metrics, error) { return sim.RunPBSW(app, 64, a) },
		"cobra": func(a sim.Arch) (sim.Metrics, error) { return sim.RunCOBRA(app, sim.CobraOpt{}, a) },
		"phi":   func(a sim.Arch) (sim.Metrics, error) { return sim.RunPHI(app, 64, a) },
	}
	for scheme, run := range runs {
		b, err1 := run(arch)
		s, err2 := run(arch.WithScalarWalk())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(b, s) {
			t.Errorf("%s under NUCA: fast walk diverges from scalar walk", scheme)
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
// on the fast walk and on the scalar-walk oracle — so the figure tables
// derived from them are byte-identical too.
func TestFigureCellsMatchScalar(t *testing.T) {
	cells, apps := figureCells(t, 12, 42)
	for _, cores := range []int{1, 4} {
		arch := sim.DefaultArch().WithCores(cores)
		oracleArch := arch.WithScalarWalk()
		for _, c := range cells {
			name := fmt.Sprintf("%s/%s/%s/bins=%d/cores=%d", c.app, c.input, c.scheme, c.bins, cores)
			app := apps[c.app+"/"+c.input]
			b, err := exp.RunScheme(app, c.scheme, c.bins, arch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s, err := exp.RunScheme(app, c.scheme, c.bins, oracleArch)
			if err != nil {
				t.Fatalf("%s scalar walk: %v", name, err)
			}
			if !reflect.DeepEqual(b, s) {
				t.Errorf("%s: fast-walk metrics diverge from scalar-walk oracle\nfast:   %+v\noracle: %+v", name, b, s)
			}
		}
	}
}
