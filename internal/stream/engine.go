package stream

// The windowed engine. Run drives a workload's windows sequentially —
// each window is one epoch: binned, flushed, and applied through the
// selected scheme runner on a fresh machine — while the functional
// state persists across windows. RunOffline is the conformance oracle:
// the concatenated update sequence through the same runner as one
// offline cell. Both expose the final functional state for bitwise
// comparison.

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cobra/internal/sim"
)

// DefaultBins is the epoch bin count used when a config does not pick
// one (PB-SW and PHI only; clamped to the key count).
const DefaultBins = 4096

// ErrInterrupted reports a streamed run stopped between windows
// because its context was cancelled. Windows recorded before the
// interrupt remain valid; a resumed run replays them through its
// Store.
var ErrInterrupted = errors.New("stream: run interrupted")

// Config drives one streamed (or offline-oracle) run.
type Config struct {
	// Scheme is the runner each window goes through: any scheme whose
	// SchemeID is Streamable. PB-SW-IDEAL is a composed offline
	// construction and is not.
	Scheme sim.Scheme
	// Bins is the PB-SW/PHI bin count; <= 0 selects DefaultBins. (The
	// offline best-bin sweep has no streaming analogue: an unbounded
	// stream is binned at a fixed epoch geometry.)
	Bins int
	Arch sim.Arch

	// Ctx, when non-nil, is checked between windows: cancellation stops
	// the run with ErrInterrupted (the in-flight window completes).
	Ctx context.Context

	// Store, when non-nil, is the window-granularity checkpoint, with
	// exp.Journal.Do's shape: it returns window w's stored metrics, joins
	// an identical window under way, or calls run, which simulates the
	// window, and records what it returns before the run advances.
	// replayed reports a stored or joined window, which the engine then
	// applies functionally instead of simulating it. An error stops the
	// run.
	Store func(w int, run func() (sim.Metrics, error)) (m sim.Metrics, replayed bool, err error)
	// OnWindow, when non-nil, observes every window as it completes
	// (replayed as Store reported it) — progress lines, /metrics
	// gauges, event streams.
	OnWindow func(w int, m sim.Metrics, replayed bool)
}

// Result is one run's outcome.
type Result struct {
	// PerWindow holds each window's metrics in window order (one entry
	// for an offline run).
	PerWindow []sim.Metrics
	// Merged folds PerWindow through the sim.MergeMetrics laws: cycle
	// max-fold (the slowest window bounds a pipelined steady state),
	// counter/traffic sums, rates re-derived from summed raw counts.
	Merged sim.Metrics
	// Final is the functional state after every window — the byte-
	// identity witness against the offline oracle.
	Final []uint64
	// Replayed counts windows the Store replayed.
	Replayed int
}

// Run executes the workload's windows in order. Each window simulates
// on a fresh machine (epoch semantics: per-window binning state never
// leaks across windows; a machine recycled from sim's pool is reset to
// exactly the new-machine state) while the functional state
// accumulates, so after the last window Result.Final bitwise-equals
// RunOffline's.
func Run(w Workload, cfg Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	id, bins, err := cfg.resolve(w.NumKeys)
	if err != nil {
		return nil, err
	}
	st := NewState(w.NumKeys)
	res := &Result{PerWindow: make([]sim.Metrics, 0, w.Windows)}
	for i := 0; i < w.Windows; i++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, fmt.Errorf("%w after %d/%d windows (%v)", ErrInterrupted, i, w.Windows, cfg.Ctx.Err())
		}
		run := func() (sim.Metrics, error) { return sim.Run(w.WindowApp(i, st), id, bins, cfg.Arch) }
		var m sim.Metrics
		var replayed bool
		var err error
		if cfg.Store != nil {
			m, replayed, err = cfg.Store(i, run)
		} else {
			m, err = run()
		}
		if err != nil {
			return nil, fmt.Errorf("stream: window %d/%d: %w", i, w.Windows, err)
		}
		if replayed {
			w.ApplyWindow(i, st)
			res.Replayed++
		}
		res.PerWindow = append(res.PerWindow, m)
		if cfg.OnWindow != nil {
			cfg.OnWindow(i, m, replayed)
		}
	}
	res.Merged = sim.MergeMetrics(res.PerWindow)
	if len(res.PerWindow) > 0 {
		// Windows run sequentially on the same machine: the core-sum
		// law (which merges concurrent shards) does not apply across
		// windows.
		res.Merged.Cores = res.PerWindow[0].Cores
		if res.Merged.Cores == 0 {
			res.Merged.Cores = 1
		}
	}
	res.Final = st.Vals
	return res, nil
}

// RunOffline is the oracle: the concatenated update sequence applied
// as one offline cell through the same scheme runner.
func RunOffline(w Workload, cfg Config) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	id, bins, err := cfg.resolve(w.NumKeys)
	if err != nil {
		return nil, err
	}
	st := NewState(w.NumKeys)
	m, err := sim.Run(w.appRange(0, w.Total(), st), id, bins, cfg.Arch)
	if err != nil {
		return nil, err
	}
	return &Result{PerWindow: []sim.Metrics{m}, Merged: m, Final: st.Vals}, nil
}

// resolve picks the scheme's runner and the epoch bin count for a
// workload of numKeys keys: Bins <= 0 selects DefaultBins, and the
// count is clamped to the key count.
func (cfg Config) resolve(numKeys int) (sim.SchemeID, int, error) {
	id, err := sim.ParseSchemeID(string(cfg.Scheme))
	if err != nil || !id.Streamable() {
		var names []string
		for _, s := range sim.SchemeIDs() {
			if s.Streamable() {
				names = append(names, s.String())
			}
		}
		return id, 0, fmt.Errorf("stream: scheme %q is not streamable (want one of %s)", cfg.Scheme, strings.Join(names, ", "))
	}
	bins := cfg.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	return id, min(bins, numKeys), nil
}
