package simtest_test

// Metric-invariant tests: conservation laws the simulator's reported
// metrics must obey regardless of scheme or timing-model changes.
// These are the counters the figures are computed from, so a violated
// invariant means a figure is silently wrong even if no test output
// changes.

import (
	"testing"

	"cobra/internal/core"
	"cobra/internal/sim"
	"cobra/internal/simtest"
)

// totalsOf projects a run's whole-run memory counters into PhaseMem
// form so phase deltas can be compared against them.
func totalsOf(m sim.Metrics) sim.PhaseMem {
	return sim.PhaseMem{
		L1Misses:       m.L1Misses,
		L2Misses:       m.L2Misses,
		LLCMisses:      m.LLCMisses,
		DRAMReadLines:  m.DRAM.ReadLines,
		DRAMWriteLines: m.DRAM.WriteLines,
	}
}

// checkPhaseLE asserts every field of phase <= total (phases can never
// report more activity than the whole run).
func checkPhaseLE(t *testing.T, label string, phase, total sim.PhaseMem) {
	t.Helper()
	if phase.L1Misses > total.L1Misses || phase.L2Misses > total.L2Misses ||
		phase.LLCMisses > total.LLCMisses ||
		phase.DRAMReadLines > total.DRAMReadLines || phase.DRAMWriteLines > total.DRAMWriteLines {
		t.Fatalf("%s: phase memory exceeds whole-run totals:\nphase %+v\ntotal %+v", label, phase, total)
	}
}

// TestBaselinePhaseMemEqualsTotals: the baseline is a single-phase run,
// so its Accumulate phase snapshot must equal the whole-run counters
// exactly — the strict form of "PhaseMem.Sum equals whole-run totals".
func TestBaselinePhaseMemEqualsTotals(t *testing.T) {
	app, _ := simtest.CountApp(1<<14, 100000, 11)
	m, err := sim.RunBaseline(app, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	if m.AccumMem != totalsOf(m) {
		t.Fatalf("baseline phase mem != totals:\nphase %+v\ntotal %+v", m.AccumMem, totalsOf(m))
	}
	if m.AccumMem.DRAMBytes() != (m.DRAM.ReadLines+m.DRAM.WriteLines)*64 {
		t.Fatal("DRAMBytes disagrees with line counts")
	}
}

// TestPBSWPhaseMemConservation: Binning + Accumulate must sum to the
// whole-run totals minus a non-negative Init remainder, for every
// counter — no phase may double-count or leak DRAM traffic.
func TestPBSWPhaseMemConservation(t *testing.T) {
	app, _ := simtest.CountApp(1<<14, 100000, 12)
	for _, bins := range []int{16, 256, 4096} {
		m, err := sim.RunPBSW(app, bins, sim.DefaultArch())
		if err != nil {
			t.Fatal(err)
		}
		total := totalsOf(m)
		sum := m.BinMem.Sum(m.AccumMem)
		checkPhaseLE(t, "pbsw", sum, total)
		// The Init remainder (totals - binning - accumulate) is exactly
		// the counting pass + prefix sum; it must be a small fraction of
		// whole-run DRAM traffic, not a dumping ground.
		initRead := total.DRAMReadLines - sum.DRAMReadLines
		if total.DRAMReadLines > 0 && initRead*2 > total.DRAMReadLines {
			t.Fatalf("bins=%d: init phase carries %d/%d DRAM read lines", bins, initRead, total.DRAMReadLines)
		}
		// DRAMBytes conservation across binning+accumulate: bytes are
		// additive over phases and consistent with line counts.
		if m.BinMem.DRAMBytes()+m.AccumMem.DRAMBytes() != sum.DRAMBytes() {
			t.Fatalf("bins=%d: DRAMBytes not additive over phases", bins)
		}
		if sum.DRAMBytes() > total.DRAMBytes() {
			t.Fatalf("bins=%d: phase DRAM bytes exceed whole-run bytes", bins)
		}
	}
}

// TestCOBRAPhaseMemConservation: same law for the hardware scheme.
func TestCOBRAPhaseMemConservation(t *testing.T) {
	app, _ := simtest.CountApp(1<<16, 200000, 13)
	m, err := sim.RunCOBRA(app, sim.CobraOpt{}, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	checkPhaseLE(t, "cobra", m.BinMem.Sum(m.AccumMem), totalsOf(m))
}

// TestBinnedTupleConservation: the hardware C-Buffer hierarchy must
// deliver every binned update to exactly one bin — tuples are never
// dropped or duplicated on the L1→L2→LLC→DRAM eviction path.
func TestBinnedTupleConservation(t *testing.T) {
	const numKeys, n = 1 << 14, 50000
	mach := sim.NewMach(sim.DefaultArch())
	m := core.NewMachine(new(core.CBufStore), mach.CPU, core.DefaultConfig(4))
	if err := m.BinInit(numKeys); err != nil {
		t.Fatal(err)
	}
	app, _ := simtest.CountApp(numKeys, n, 14)
	app.ForEach(func(key uint32, val uint64, _ bool) { m.BinUpdate(key, val) })
	m.BinFlush()
	if got := m.TotalBinnedTuples(); got != n {
		t.Fatalf("binned tuples = %d, want %d (tuples lost or duplicated)", got, n)
	}
	// The per-bin counts must agree with the machine's own total.
	sum := 0
	for _, b := range m.Bins {
		sum += len(b)
	}
	if sum != n {
		t.Fatalf("sum over bins = %d, want %d", sum, n)
	}
}

// TestSpeedupSanity: baseline over baseline is exactly 1, and the
// degenerate zero-cycle guard holds.
func TestSpeedupSanity(t *testing.T) {
	app, _ := simtest.CountApp(1<<12, 20000, 15)
	m, err := sim.RunBaseline(app, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Speedup(m); got != 1 {
		t.Fatalf("self-speedup = %v, want exactly 1", got)
	}
	var zero sim.Metrics
	if zero.Speedup(m) != 0 {
		t.Fatal("zero-cycle speedup should be 0")
	}
	if phases := m.InitCycles + m.BinCycles + m.AccumCycles; phases > m.Cycles {
		t.Fatalf("phase cycles (%v) exceed total (%v)", phases, m.Cycles)
	}
}
