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

	"cobra/internal/sim"
)

// DefaultBins is the epoch bin count used when a config does not pick
// one (PB-SW and PHI only; clamped to the key count).
const DefaultBins = 4096

// ErrInterrupted reports a streamed run stopped between windows
// because its context was cancelled. Windows recorded before the
// interrupt remain valid; a resumed run replays them via its Lookup
// hook.
var ErrInterrupted = errors.New("stream: run interrupted")

// Config drives one streamed (or offline-oracle) run.
type Config struct {
	// Scheme is the runner each window goes through: Baseline, PB-SW,
	// COBRA, COBRA-COMM, or PHI. PB-SW-IDEAL is a composed offline
	// construction and is not streamable.
	Scheme sim.Scheme
	// Bins is the PB-SW/PHI bin count; <= 0 selects DefaultBins. (The
	// offline best-bin sweep has no streaming analogue: an unbounded
	// stream is binned at a fixed epoch geometry.)
	Bins int
	Arch sim.Arch

	// Ctx, when non-nil, is checked between windows: cancellation stops
	// the run with ErrInterrupted (the in-flight window completes).
	Ctx context.Context

	// Lookup, when non-nil, consults a checkpoint for window w. A hit
	// replays the recorded metrics and applies the window functionally
	// instead of simulating it.
	Lookup func(w int) (sim.Metrics, bool)
	// Record, when non-nil, durably records window w's fresh metrics
	// before the run advances — the window-granularity checkpoint.
	Record func(w int, m sim.Metrics) error
	// OnWindow, when non-nil, observes every window as it completes
	// (replayed reports a Lookup hit) — progress lines, /metrics
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
	// Replayed counts windows served from the checkpoint Lookup.
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
	st := NewState(w.NumKeys)
	res := &Result{PerWindow: make([]sim.Metrics, 0, w.Windows)}
	for i := 0; i < w.Windows; i++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return nil, fmt.Errorf("%w after %d/%d windows (%v)", ErrInterrupted, i, w.Windows, cfg.Ctx.Err())
		}
		if cfg.Lookup != nil {
			if m, ok := cfg.Lookup(i); ok {
				w.ApplyWindow(i, st)
				res.PerWindow = append(res.PerWindow, m)
				res.Replayed++
				if cfg.OnWindow != nil {
					cfg.OnWindow(i, m, true)
				}
				continue
			}
		}
		m, err := runScheme(w.WindowApp(i, st), cfg)
		if err != nil {
			return nil, fmt.Errorf("stream: window %d/%d: %w", i, w.Windows, err)
		}
		if cfg.Record != nil {
			if err := cfg.Record(i, m); err != nil {
				return nil, fmt.Errorf("stream: recording window %d: %w", i, err)
			}
		}
		res.PerWindow = append(res.PerWindow, m)
		if cfg.OnWindow != nil {
			cfg.OnWindow(i, m, false)
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
	st := NewState(w.NumKeys)
	m, err := runScheme(w.appRange(0, w.Total(), st), cfg)
	if err != nil {
		return nil, err
	}
	return &Result{PerWindow: []sim.Metrics{m}, Merged: m, Final: st.Vals}, nil
}

// runScheme dispatches one epoch (or the offline concatenation) to the
// existing scheme runners.
func runScheme(app *sim.App, cfg Config) (sim.Metrics, error) {
	bins := cfg.Bins
	if bins <= 0 {
		bins = DefaultBins
	}
	if bins > app.NumKeys {
		bins = app.NumKeys
	}
	switch cfg.Scheme {
	case sim.SchemeBaseline:
		return sim.RunBaseline(app, cfg.Arch)
	case sim.SchemePBSW:
		return sim.RunPBSW(app, bins, cfg.Arch)
	case sim.SchemeCOBRA:
		return sim.RunCOBRA(app, sim.CobraOpt{}, cfg.Arch)
	case sim.SchemeComm:
		return sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true}, cfg.Arch)
	case sim.SchemePHI:
		return sim.RunPHI(app, bins, cfg.Arch)
	default:
		return sim.Metrics{}, fmt.Errorf("stream: scheme %q is not streamable (want one of Baseline, PB-SW, COBRA, COBRA-COMM, PHI)", cfg.Scheme)
	}
}

// Streamable reports whether a scheme can drive the windowed engine.
func Streamable(s sim.Scheme) bool {
	switch s {
	case sim.SchemeBaseline, sim.SchemePBSW, sim.SchemeCOBRA, sim.SchemeComm, sim.SchemePHI:
		return true
	default:
		return false
	}
}
