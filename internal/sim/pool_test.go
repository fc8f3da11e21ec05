package sim_test

// Machine recycling: a machine taken back from the pool must be
// indistinguishable from a new one, field by field and in every
// Metrics bit it produces, also when runs share the pool concurrently.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cobra/internal/cache"
	"cobra/internal/sim"
	"cobra/internal/simtest"
)

// schemeRun is one runner invocation under test.
type schemeRun struct {
	name string
	run  func(app *sim.App, arch sim.Arch) (sim.Metrics, error)
}

func schemeRuns() []schemeRun {
	return []schemeRun{
		{"Baseline", sim.RunBaseline},
		{"PB-SW", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) { return sim.RunPBSW(app, 64, arch) }},
		{"COBRA", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) { return sim.RunCOBRA(app, sim.CobraOpt{}, arch) }},
		{"COBRA-nopart", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) {
			return sim.RunCOBRA(app, sim.CobraOpt{NoPartition: true}, arch)
		}},
		{"COBRA-COMM", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) {
			return sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true, CtxSwitchQuantum: 20000}, arch)
		}},
		{"PHI", func(app *sim.App, arch sim.Arch) (sim.Metrics, error) { return sim.RunPHI(app, 64, arch) }},
	}
}

// captureMachs wraps app so every machine its applier is built on is
// recorded (core 0 of a gang, the only machine of a 1-core run).
func captureMachs(app *sim.App) *[]*sim.Mach {
	var got []*sim.Mach
	orig := app.NewApplier
	app.NewApplier = func(m *sim.Mach) sim.Applier {
		got = append(got, m)
		return orig(m)
	}
	return &got
}

// TestRecycledMachineEqualsNew dirties a machine with each scheme —
// way reservations (COBRA), unpartitioned C-Buffer traffic, NT-store
// write-combining (PB-SW), context switches — then resets it as NewMach
// does on a pool hit and compares hierarchy and core against a
// machine built from scratch, under Table II's LLC policy and the two
// others ablation A2 runs. A field added later without Reset coverage
// fails here.
func TestRecycledMachineEqualsNew(t *testing.T) {
	archs := map[string]sim.Arch{"DRRIP LLC": sim.DefaultArch()}
	for _, p := range []cache.PolicyKind{cache.TrueLRU, cache.Random} {
		arch := sim.DefaultArch()
		arch.Mem.LLC.Policy = p
		archs[p.String()+" LLC"] = arch
	}
	for an, arch := range archs {
		for _, sr := range schemeRuns() {
			app, _ := simtest.CountAppDist(simtest.DistSkewed, 1<<13, 30000, 11)
			machs := captureMachs(app)
			if _, err := sr.run(app, arch); err != nil {
				t.Fatal(err)
			}
			if len(*machs) != 1 {
				t.Fatalf("%s/%s: applier built %d times, want 1", an, sr.name, len(*machs))
			}
			m := (*machs)[0]
			if !m.Released() {
				t.Fatalf("%s/%s: runner did not release its machine", an, sr.name)
			}
			if m.CPU.Cycles() == 0 || m.H.L1c.Stats.Accesses() == 0 {
				t.Fatalf("%s/%s: run left the machine clean; the test dirties nothing", an, sr.name)
			}
			if sr.name == "COBRA" && m.H.LLCc.ReservedWays() == 0 {
				t.Fatalf("%s/%s: COBRA run reserved no ways", an, sr.name)
			}
			m.Recycle()
			fresh := sim.BuildMach(arch)
			if !reflect.DeepEqual(m.H, fresh.H) {
				t.Errorf("%s/%s: recycled hierarchy differs from a new one", an, sr.name)
			}
			if !reflect.DeepEqual(m.CPU, fresh.CPU) {
				t.Errorf("%s/%s: recycled core differs from a new one", an, sr.name)
			}
			if a, b := m.Alloc(1), fresh.Alloc(1); a != b {
				t.Errorf("%s/%s: recycled allocator at %#x, new at %#x", an, sr.name, a.Base, b.Base)
			}
			m.Release()
		}
	}
}

// TestRecycledMachinesMetricsBitEqual runs every scheme on new machines
// (empty pool) and again on machines other schemes dirtied and released,
// at 1 and 4 cores; neither the Metrics nor the applier's functional
// output may differ in any bit. The dirtying runs are larger — more
// updates over more keys — so their stale tuples and table slots sit
// past every bin window and table the measured run takes from the
// machines' host stores.
func TestRecycledMachinesMetricsBitEqual(t *testing.T) {
	reused := false
	for _, cores := range []int{1, 4} {
		arch := sim.DefaultArch().WithCores(cores)
		for _, sr := range schemeRuns() {
			app, counts := simtest.CountAppDist(simtest.DistSkewed, 1<<13, 30000, 21)
			sim.DrainPool()
			fresh, err := sr.run(app, arch)
			if err != nil {
				t.Fatal(err)
			}
			freshCounts := *counts
			// Dirty the pool with machines from other schemes.
			dirtyApp, _ := simtest.CountAppDist(simtest.DistUniform, 1<<14, 60000, 22)
			dirtied := captureMachs(dirtyApp)
			for _, d := range schemeRuns() {
				if d.name != sr.name {
					if _, err := d.run(dirtyApp, arch); err != nil {
						t.Fatal(err)
					}
				}
			}
			used := captureMachs(app)
			again, err := sr.run(app, arch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, again) {
				t.Errorf("%d cores, %s: metrics on recycled machines differ\nnew:      %+v\nrecycled: %+v", cores, sr.name, fresh, again)
			}
			simtest.CheckCounts(t, fmt.Sprintf("%d cores, %s on recycled machines", cores, sr.name), *counts, freshCounts)
			for _, d := range *dirtied {
				if d == (*used)[0] {
					reused = true
				}
			}
		}
	}
	if !reused {
		t.Fatal("no run took a machine back from the pool; recycling is not exercised")
	}
}

// TestConcurrentCellsThroughPool runs several cells at once on separate
// goroutines, all checking machines out of and back into the one pool,
// and demands each cell's Metrics equal its serial run. The cells have
// mixed sizes, so a machine's host store passes between larger and
// smaller runs. Under -race this also pins that no machine is handed
// to two runs at once.
func TestConcurrentCellsThroughPool(t *testing.T) {
	type cell struct {
		sr      schemeRun
		cores   int
		keys    int
		updates int
		seed    uint64
	}
	var cells []cell
	for i, sr := range schemeRuns() {
		cells = append(cells, cell{sr, 1 + 3*(i%2), 1 << (11 + i%3), 10000 + 15000*(i%3), uint64(31 + i)})
	}
	run := func(c cell) (sim.Metrics, error) {
		app, _ := simtest.CountAppDist(simtest.DistSkewed, c.keys, c.updates, c.seed)
		return c.sr.run(app, sim.DefaultArch().WithCores(c.cores))
	}
	serial := make([]sim.Metrics, len(cells))
	for i, c := range cells {
		m, err := run(c)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = m
	}
	const rounds = 2
	got := make([][]sim.Metrics, rounds)
	errs := make([][]error, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		got[r] = make([]sim.Metrics, len(cells))
		errs[r] = make([]error, len(cells))
		for i, c := range cells {
			wg.Add(1)
			go func(r, i int, c cell) {
				defer wg.Done()
				got[r][i], errs[r][i] = run(c)
			}(r, i, c)
		}
	}
	wg.Wait()
	for r := range got {
		for i, c := range cells {
			name := fmt.Sprintf("round %d %s/%d cores", r, c.sr.name, c.cores)
			if errs[r][i] != nil {
				t.Fatalf("%s: %v", name, errs[r][i])
			}
			if !reflect.DeepEqual(got[r][i], serial[i]) {
				t.Errorf("%s: concurrent metrics differ from the serial run", name)
			}
		}
	}
}

// TestDoubleReleasePanics: releasing a machine twice would let the pool
// hand one machine to two runs, so it must panic.
func TestDoubleReleasePanics(t *testing.T) {
	m := sim.NewMach(sim.DefaultArch())
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	m.Release()
}
