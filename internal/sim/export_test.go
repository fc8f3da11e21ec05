package sim

import "cobra/internal/core"

// Test hooks for the external sim_test package: the machine pool's
// construction and checkout steps, reachable without going through the
// pool (whose hand-outs a test cannot force).

// BuildMach constructs a machine without consulting the pool.
var BuildMach = buildMach

// Recycle performs NewMach's checkout reset on a released machine.
func (m *Mach) Recycle() { m.recycle() }

// Released reports whether m is currently released to the pool.
func (m *Mach) Released() bool { return m.released }

// HostBins returns the bins the last PB-SW or COBRA run on m left in
// its host arena, and the arena's tuple array.
func (m *Mach) HostBins() (bins [][]core.Tuple, arena []core.Tuple) {
	return m.bins.bins, m.bins.tuples
}

// ShardRange is the chunk [lo, hi) of total items core c of n owns.
var ShardRange = shardRange

// DrainPool empties the machine pool, so the next runs build fresh
// machines.
func DrainPool() {
	for machPool.Get() != nil {
	}
}

// Merge folds m with rest, per MergeMetrics.
func (m Metrics) Merge(rest ...Metrics) Metrics {
	return MergeMetrics(append([]Metrics{m}, rest...))
}
