package cpu

import (
	"testing"

	"cobra/internal/mem"
	"cobra/internal/stats"
)

func newCore() *Core {
	cfg := mem.DefaultConfig()
	cfg.PrefetchDegree = 0
	return New(DefaultConfig(), mem.New(cfg))
}

func TestALUThroughput(t *testing.T) {
	c := newCore()
	c.ALU(400)
	if c.Cycles() != 100 {
		t.Fatalf("400 ALU ops on a 4-wide core took %.1f cycles, want 100", c.Cycles())
	}
	if c.Ctr.Instructions != 400 || c.Ctr.ALUOps != 400 {
		t.Fatalf("counters = %+v", c.Ctr)
	}
	c.ALU(0)
	c.ALU(-5)
	if c.Ctr.Instructions != 400 {
		t.Fatal("non-positive ALU counts must be no-ops")
	}
}

func TestL1HitLoadsArePipelined(t *testing.T) {
	c := newCore()
	c.Load(0x1000) // cold: DRAM
	c.DrainMem()
	start := c.Cycles()
	for i := 0; i < 100; i++ {
		c.Load(0x1000)
	}
	elapsed := c.Cycles() - start
	if elapsed > 30 {
		t.Fatalf("100 L1-hit loads took %.1f cycles; should be ~issue-bound (25)", elapsed)
	}
}

func TestDependentMissesSerialize(t *testing.T) {
	// Dependent DRAM misses cannot overlap: N misses ~ N * DRAM latency.
	c := newCore()
	r := stats.NewRand(3)
	const n = 200
	start := c.Cycles()
	for i := 0; i < n; i++ {
		c.LoadDep(r.Uint64n(1 << 30))
	}
	perMiss := (c.Cycles() - start) / n
	if perMiss < 150 {
		t.Fatalf("dependent misses overlapped too much: %.1f cycles each, want ~212", perMiss)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	// Independent DRAM misses overlap up to MSHR count: N misses should
	// be several times faster than dependent ones.
	dep, ind := newCore(), newCore()
	r1, r2 := stats.NewRand(3), stats.NewRand(3)
	const n = 500
	for i := 0; i < n; i++ {
		dep.LoadDep(r1.Uint64n(1 << 30))
		ind.Load(r2.Uint64n(1 << 30))
	}
	dep.DrainMem()
	ind.DrainMem()
	if ind.Cycles() > dep.Cycles()/2 {
		t.Fatalf("independent misses (%.0f cyc) should be far faster than dependent (%.0f cyc)",
			ind.Cycles(), dep.Cycles())
	}
}

func TestMSHRLimitBoundsOverlap(t *testing.T) {
	// With 1 MSHR, independent misses serialize just like dependent ones.
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	m := mem.DefaultConfig()
	m.PrefetchDegree = 0
	c := New(cfg, mem.New(m))
	r := stats.NewRand(5)
	const n = 200
	for i := 0; i < n; i++ {
		c.Load(r.Uint64n(1 << 30))
	}
	c.DrainMem()
	perMiss := c.Cycles() / n
	if perMiss < 150 {
		t.Fatalf("1-MSHR core overlapped misses: %.1f cycles per miss", perMiss)
	}
}

// TestMSHRBounds pins New's MSHR range: a core needs at least one
// MSHR, and any count above that works (the outstanding-miss queue has
// no width limit).
func TestMSHRBounds(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65} {
		cfg := DefaultConfig()
		cfg.MSHRs = n
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			c := New(cfg, mem.New(mem.DefaultConfig()))
			r := stats.NewRand(7)
			for i := 0; i < 200; i++ {
				c.Load(r.Uint64n(1 << 30))
			}
			c.DrainMem()
			return false
		}()
		if want := n < 1; panicked != want {
			t.Errorf("MSHRs=%d: panicked = %v, want %v", n, panicked, want)
		}
	}
}

func TestROBRunwayBoundsDistantOverlap(t *testing.T) {
	// A tiny ROB forces the core to wait on outstanding misses even when
	// MSHRs are free, so cycles grow versus a big ROB.
	run := func(rob int) float64 {
		cfg := DefaultConfig()
		cfg.ROB = rob
		m := mem.DefaultConfig()
		m.PrefetchDegree = 0
		c := New(cfg, mem.New(m))
		r := stats.NewRand(7)
		for i := 0; i < 500; i++ {
			c.Load(r.Uint64n(1 << 30))
			c.ALU(40) // work between misses exhausts a small ROB
		}
		c.DrainMem()
		return c.Cycles()
	}
	small, big := run(16), run(512)
	if small <= big {
		t.Fatalf("ROB=16 (%.0f cyc) should be slower than ROB=512 (%.0f cyc)", small, big)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	c := newCore()
	// A loop branch: taken 63 times, not-taken once, repeated. Gshare
	// should get well above 90% on this.
	for iter := 0; iter < 100; iter++ {
		for i := 0; i < 63; i++ {
			c.Branch(0x400, true)
		}
		c.Branch(0x400, false)
	}
	if r := c.Ctr.BranchMissRate(); r > 0.1 {
		t.Fatalf("loop-branch miss rate %.3f, want < 0.1", r)
	}
}

func TestBranchPredictorRandomIsBad(t *testing.T) {
	c := newCore()
	r := stats.NewRand(9)
	for i := 0; i < 20000; i++ {
		c.Branch(0x400, r.Intn(2) == 0)
	}
	if rate := c.Ctr.BranchMissRate(); rate < 0.35 {
		t.Fatalf("random branches mispredicted only %.3f, want ~0.5", rate)
	}
}

func TestBranchMissPenaltyCharged(t *testing.T) {
	good, bad := newCore(), newCore()
	for i := 0; i < 1000; i++ {
		good.Branch(1, true) // perfectly predictable
	}
	r := stats.NewRand(2)
	for i := 0; i < 1000; i++ {
		bad.Branch(1, r.Intn(2) == 0)
	}
	if bad.Cycles() <= good.Cycles()+1000 {
		t.Fatalf("mispredicts cost too little: good=%.0f bad=%.0f", good.Cycles(), bad.Cycles())
	}
}

func TestStoreNTDoesNotStall(t *testing.T) {
	c := newCore()
	start := c.Cycles()
	for i := uint64(0); i < 1000; i++ {
		c.StoreNT(0x100000 + i*8)
	}
	elapsed := c.Cycles() - start
	if elapsed > 300 {
		t.Fatalf("1000 NT stores took %.0f cycles; they must not stall", elapsed)
	}
}

func TestBinUpdateIsSingleSlot(t *testing.T) {
	c := newCore()
	for i := 0; i < 400; i++ {
		c.BinUpdate()
	}
	if c.Cycles() != 100 {
		t.Fatalf("400 binupdates took %.1f cycles, want 100 (issue-bound)", c.Cycles())
	}
	if c.Ctr.BinUpdates != 400 {
		t.Fatalf("BinUpdates = %d", c.Ctr.BinUpdates)
	}
}

func TestCountersSubAndRates(t *testing.T) {
	c := newCore()
	c.ALU(10)
	snap := c.Ctr
	c.Load(0)
	c.Store(64)
	c.Branch(1, true)
	d := c.Ctr.Sub(snap)
	if d.Instructions != 3 || d.Loads != 1 || d.Stores != 1 || d.Branches != 1 {
		t.Fatalf("delta = %+v", d)
	}
	var zero Counters
	if zero.BranchMissRate() != 0 || zero.MPKI() != 0 {
		t.Fatal("zero counters should have zero rates")
	}
}

func TestLoadLevelCounters(t *testing.T) {
	c := newCore()
	c.Load(0x5000)
	c.DrainMem()
	c.Load(0x5000)
	if c.Ctr.LoadsDRAM != 1 || c.Ctr.LoadsL1 != 1 {
		t.Fatalf("level counters = %+v", c.Ctr)
	}
}

func TestSecondsAndIPC(t *testing.T) {
	c := newCore()
	c.ALU(2660)
	if s := c.Seconds(); s <= 0 {
		t.Fatalf("Seconds = %v", s)
	}
	if ipc := c.IPC(); ipc != 4 {
		t.Fatalf("pure-ALU IPC = %v, want 4", ipc)
	}
	var idle Core
	if idle.IPC() != 0 {
		t.Fatal("idle IPC should be 0")
	}
}

func TestAdvanceCycles(t *testing.T) {
	c := newCore()
	c.AdvanceCycles(123)
	if c.Cycles() != 123 {
		t.Fatalf("Cycles = %v", c.Cycles())
	}
}

func TestIrregularVsStreamingGap(t *testing.T) {
	// The premise of the whole paper: streaming updates run much faster
	// than irregular updates over a DRAM-sized footprint.
	streaming, irregular := newCore(), newCore()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		streaming.Load(i * 4)
	}
	streaming.DrainMem()
	r := stats.NewRand(11)
	for i := 0; i < n; i++ {
		addr := r.Uint64n(256 << 20)
		irregular.LoadDep(addr)
		irregular.Store(addr)
	}
	irregular.DrainMem()
	if irregular.Cycles() < 5*streaming.Cycles() {
		t.Fatalf("irregular (%.0f) should dwarf streaming (%.0f)", irregular.Cycles(), streaming.Cycles())
	}
}

func TestNUCASlowsSharedLLCHits(t *testing.T) {
	// With NUCA on, LLC-serviced loads to remote banks cost more than
	// the local-slice model; total cycles must not decrease.
	mk := func(nuca bool) *Core {
		cfg := mem.DefaultConfig()
		cfg.PrefetchDegree = 0
		if nuca {
			cfg.NUCA = mem.DefaultNUCA()
		}
		return New(DefaultConfig(), mem.New(cfg))
	}
	run := func(c *Core) float64 {
		r := stats.NewRand(3)
		// Working set inside the LLC so most accesses are LLC hits.
		for i := 0; i < 60000; i++ {
			c.LoadDep(r.Uint64n(1 << 20))
		}
		c.DrainMem()
		return c.Cycles()
	}
	local, nuca := run(mk(false)), run(mk(true))
	if nuca <= local {
		t.Fatalf("NUCA (%.0f cyc) should cost more than local-slice (%.0f cyc)", nuca, local)
	}
}
