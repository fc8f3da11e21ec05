package sim_test

// One runner per scheme: a one-core run is a gang of one. These tests
// pin what that gang of one looks like from outside — the obsv names
// the benchmark's layer report reads, the applier contract, and the
// handling of a panicking applier.

import (
	"strconv"
	"strings"
	"testing"

	"cobra/internal/obsv"
	"cobra/internal/sim"
	"cobra/internal/simtest"
)

// TestRunnerObsvNames pins the per-phase wall timers every scheme
// reports: "sim.<s>.<phase>.wall" on one core, with no per-core scope
// and no "cores" gauge; "sim.<s>.core<k>.<phase>.wall" for every core
// and "cores" = n on n > 1 cores.
func TestRunnerObsvNames(t *testing.T) {
	schemes := []struct {
		scope  string
		phases []string
		run    func(app *sim.App, arch sim.Arch) (sim.Metrics, error)
	}{
		{"sim.baseline", []string{"accumulate"}, sim.RunBaseline},
		{"sim.pbsw", []string{"init", "binning", "accumulate"}, func(app *sim.App, arch sim.Arch) (sim.Metrics, error) {
			return sim.RunPBSW(app, 64, arch)
		}},
		{"sim.cobra", []string{"init", "binning", "accumulate"}, func(app *sim.App, arch sim.Arch) (sim.Metrics, error) {
			return sim.RunCOBRA(app, sim.CobraOpt{}, arch)
		}},
		{"sim.cobracomm", []string{"init", "binning", "accumulate"}, func(app *sim.App, arch sim.Arch) (sim.Metrics, error) {
			return sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true}, arch)
		}},
		{"sim.phi", []string{"binning", "accumulate"}, func(app *sim.App, arch sim.Arch) (sim.Metrics, error) {
			return sim.RunPHI(app, 64, arch)
		}},
	}
	prev := obsv.Default()
	defer obsv.SetDefault(prev)
	for _, s := range schemes {
		for _, cores := range []int{1, 4} {
			reg := obsv.New()
			obsv.SetDefault(reg)
			app, _ := simtest.CountApp(1<<12, 20000, 5)
			if _, err := s.run(app, sim.DefaultArch().WithCores(cores)); err != nil {
				t.Fatal(err)
			}
			obsv.SetDefault(prev)
			snap := reg.Snapshot()
			label := s.scope + "/cores=" + strconv.Itoa(cores)
			for _, name := range []string{s.scope + ".runs", s.scope + ".wall"} {
				if _, ok := snap[name]; !ok {
					t.Errorf("%s: missing %q", label, name)
				}
			}
			g, hasGauge := snap[s.scope+".cores"]
			if cores == 1 {
				if hasGauge {
					t.Errorf("%s: one-core run reports a cores gauge", label)
				}
				for name := range snap {
					if strings.Contains(name, ".core0.") {
						t.Errorf("%s: one-core run reports per-core timer %q", label, name)
					}
				}
				for _, p := range s.phases {
					if h, ok := snap[s.scope+"."+p+".wall"]; !ok || h.Count != 1 {
						t.Errorf("%s: phase timer %s.%s.wall = %+v, want one observation", label, s.scope, p, h)
					}
				}
				continue
			}
			if !hasGauge || g.Value != float64(cores) {
				t.Errorf("%s: cores gauge = %+v (present %v), want %d", label, g, hasGauge, cores)
			}
			for _, p := range s.phases {
				if _, ok := snap[s.scope+"."+p+".wall"]; ok {
					t.Errorf("%s: multi-core run reports unscoped %s.%s.wall", label, s.scope, p)
				}
				for k := 0; k < cores; k++ {
					name := s.scope + ".core" + strconv.Itoa(k) + "." + p + ".wall"
					if h, ok := snap[name]; !ok || h.Count != 1 {
						t.Errorf("%s: %s = %+v, want one observation", label, name, h)
					}
				}
			}
		}
	}
}

// panicApplier fails on its first update.
type panicApplier struct{}

func (panicApplier) Apply(*sim.Mach, uint32, uint64) { panic("applier failed") }

// TestOneCorePanicReturnsError: a panicking applier on one core comes
// back as the run's error naming core 0, as on a multi-core gang, and
// does not crash the caller.
func TestOneCorePanicReturnsError(t *testing.T) {
	for _, sr := range schemeRuns() {
		if sr.name == "COBRA-nopart" {
			continue // same Accumulate as COBRA
		}
		app, _ := simtest.CountApp(1<<12, 20000, 7)
		app.NewApplier = func(*sim.Mach) sim.Applier { return panicApplier{} }
		_, err := sr.run(app, sim.DefaultArch())
		if err == nil || !strings.Contains(err.Error(), "core 0 panicked: applier failed") {
			t.Fatalf("%s: err = %v, want core 0's panic", sr.name, err)
		}
	}
}
