// Package simtest provides shared synthetic workload builders and
// functional oracles for testing the simulator's execution schemes.
//
// Every execution scheme the paper evaluates (Baseline, PB-SW, COBRA,
// COBRA-COMM, PHI) must be a *functional no-op*: reordering updates
// through bins and C-Buffers may change the timing model's outputs,
// never the computed data. The builders here produce commutative count
// workloads whose final state is observable from the outside, and the
// oracles compare that state against a direct replay of the update
// stream — the correctness contract the differential tests pin for
// every scheme.
//
// (The helpers were previously private copies inside
// internal/sim/sim_test.go; sharing them here lets the sim tests, the
// cross-scheme differential oracle, and the metric-invariant tests all
// exercise the same workloads.)
package simtest

import (
	"testing"

	"cobra/internal/sim"
	"cobra/internal/stats"
)

// Dist selects the key distribution of a synthetic count workload —
// each stresses a different scheme mechanism.
type Dist int

const (
	// DistUniform draws keys uniformly: every bin fills evenly, the
	// C-Buffer full branch fires regularly.
	DistUniform Dist = iota
	// DistSkewed draws keys from a cubed-uniform (power-law-ish)
	// distribution: hot keys exercise coalescing (COBRA-COMM, PHI) and
	// imbalanced bins.
	DistSkewed
	// DistGrouped emits runs of equal keys with newGroup markers, the
	// shape of a CSR traversal: exercises the inner-loop branch model
	// and group boundaries.
	DistGrouped
)

// String names the distribution for test labels.
func (d Dist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistSkewed:
		return "skewed"
	case DistGrouped:
		return "grouped"
	default:
		return "unknown"
	}
}

// Dists lists every distribution, for table-driven tests.
func Dists() []Dist { return []Dist{DistUniform, DistSkewed, DistGrouped} }

// CountApp builds a synthetic commutative count workload: n updates
// with uniformly random keys over numKeys, pure read-modify-write
// counters. The returned slice pointer exposes the applier's live
// counter array — after a run it holds the scheme's functional output.
func CountApp(numKeys, n int, seed uint64) (*sim.App, *[]uint32) {
	return CountAppDist(DistUniform, numKeys, n, seed)
}

// CountAppDist is CountApp with an explicit key distribution.
func CountAppDist(dist Dist, numKeys, n int, seed uint64) (*sim.App, *[]uint32) {
	r := stats.NewRand(seed)
	keys := make([]uint32, n)
	groups := make([]bool, n)
	switch dist {
	case DistSkewed:
		for i := range keys {
			f := r.Float64()
			keys[i] = uint32(f * f * f * float64(numKeys))
			if keys[i] >= uint32(numKeys) {
				keys[i] = uint32(numKeys) - 1
			}
		}
	case DistGrouped:
		i := 0
		for i < n {
			k := uint32(r.Intn(numKeys))
			run := 1 + r.Intn(8)
			for j := 0; j < run && i < n; j++ {
				keys[i] = k
				groups[i] = j == 0
				i++
			}
		}
	default:
		for i := range keys {
			keys[i] = uint32(r.Intn(numKeys))
		}
	}
	counts := &[]uint32{}
	return &sim.App{
		Name:        "test-count-" + dist.String(),
		InputName:   "synthetic",
		Commutative: true,
		TupleBytes:  4,
		NumKeys:     numKeys,
		NumUpdates:  n,
		StreamBytes: 4,
		ApplyALU:    1,
		Reduce:      func(a, b uint64) uint64 { return a + b },
		ForEach: func(emit func(uint32, uint64, bool)) {
			for i, k := range keys {
				emit(k, 1, groups[i])
			}
		},
		NewApplier: func(m *sim.Mach) sim.Applier {
			c := make([]uint32, numKeys)
			*counts = c
			return &countApplier{r: m.Alloc(uint64(numKeys) * 4), c: c}
		},
	}, counts
}

// countApplier performs one counter increment against the machine.
type countApplier struct {
	r sim.Region
	c []uint32
}

func (a *countApplier) Apply(m *sim.Mach, key uint32, val uint64) {
	addr := a.r.Addr(uint64(key) * 4)
	m.CPU.Load(addr)
	m.CPU.Store(addr)
	a.c[key] += uint32(val)
}

// RefCounts computes the functional oracle: a direct replay of the
// update stream with no machine, no bins, no reordering.
func RefCounts(app *sim.App) []uint32 {
	ref := make([]uint32, app.NumKeys)
	app.ForEach(func(k uint32, v uint64, _ bool) { ref[k] += uint32(v) })
	return ref
}

// CheckCounts asserts a scheme's functional output equals the oracle.
func CheckCounts(t testing.TB, scheme string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: counts length %d, want %d", scheme, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: counts[%d] = %d, want %d", scheme, i, got[i], want[i])
		}
	}
}
