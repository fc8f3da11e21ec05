package sim

// Harness observability for the scheme runners. Every Run* entry point
// reports per-scheme run counts, per-phase wall-clock histograms, and
// update-throughput rates into the process obsv registry — strictly
// harness-side wall time, never simulated state, so instrumented runs
// produce bit-identical Metrics (asserted by TestRunsByteIdenticalWithObsv).
//
// Zero-cost-when-disabled: beginRunObs starts with one atomic load of
// the default registry; when it is nil the returned runObs is inert —
// no clock reads, no allocations, no metric lookups.

import (
	"strconv"
	"time"

	"cobra/internal/obsv"
)

// runObs observes one scheme run. The zero runObs (disabled registry)
// no-ops everywhere.
type runObs struct {
	reg     *obsv.Registry // scoped to "sim.<scheme>", nil when disabled
	start   time.Time
	updates int
	cores   int
}

// beginRunObs opens observation of one run on a gang of n cores and
// counts it. A multi-core run also records its shard width ("cores").
func beginRunObs(scheme Scheme, app *App, n int) runObs {
	root := obsv.Default()
	if root == nil {
		return runObs{}
	}
	reg := root.Scope(schemeScope(scheme))
	reg.Counter("runs").Add(1)
	reg.Counter("updates").Add(uint64(app.NumUpdates))
	if n > 1 {
		reg.Gauge("cores").Set(float64(n))
	}
	return runObs{reg: reg, start: time.Now(), updates: app.NumUpdates, cores: n}
}

// corePhase starts core c's wall-clock timer for one phase
// ("init.wall", "binning.wall", "accumulate.wall"). A one-core run
// times the phase itself ("sim.pbsw.binning.wall"); a multi-core run
// times each shard in its core's scope ("sim.pbsw.core3.binning.wall").
// Timers on distinct cores run concurrently; the registry is
// lock-free, so this is safe from the shard goroutines.
func (ro runObs) corePhase(c int, name string) obsv.Timer {
	if ro.reg == nil {
		return obsv.Timer{}
	}
	if ro.cores == 1 {
		return ro.reg.Timer(name)
	}
	return ro.reg.Scope("core" + strconv.Itoa(c)).Timer(name)
}

// end closes the run: whole-run wall histogram plus the event-rate
// gauge (simulated updates processed per harness second).
func (ro runObs) end() {
	if ro.reg == nil {
		return
	}
	elapsed := time.Since(ro.start)
	ro.reg.Histogram("wall").Observe(elapsed)
	if s := elapsed.Seconds(); s > 0 {
		ro.reg.Gauge("updates_per_sec").Set(float64(ro.updates) / s)
	}
}
