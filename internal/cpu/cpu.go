// Package cpu provides an analytic out-of-order core timing model.
//
// The model substitutes for the paper's Sniper simulations (see
// DESIGN.md): it tracks the quantities the paper's conclusions actually
// depend on — instruction counts by class, branch mispredictions from a
// real gshare predictor, and memory stalls under ROB- and MSHR-bounded
// memory-level parallelism — without simulating a full pipeline.
//
// Timing works on a monotonically increasing cycle clock:
//
//   - Every issued micro-op advances the clock by 1/IssueWidth.
//   - A load that misses occupies an MSHR until its fill completes; the
//     core keeps issuing until either all MSHRs are busy or the ROB
//     runway past the oldest outstanding miss is exhausted, whichever
//     binds first. Dependent loads (LoadDep) additionally serialize on
//     their own completion.
//   - A mispredicted branch adds a fixed redirect penalty.
package cpu

import (
	"fmt"
	"math/bits"

	"cobra/internal/mem"
)

// Config holds the core parameters (Table II: 4-wide issue, 128-entry
// ROB, 2.66 GHz; MSHRs and branch penalty are typical for the class of
// machine).
type Config struct {
	IssueWidth    int
	ROB           int
	MSHRs         int
	BranchPenalty uint32
	FreqGHz       float64
}

// DefaultConfig mirrors Table II.
func DefaultConfig() Config {
	return Config{IssueWidth: 4, ROB: 128, MSHRs: 10, BranchPenalty: 15, FreqGHz: 2.66}
}

// Counters aggregates retired-work statistics.
type Counters struct {
	Instructions uint64 // total retired micro-ops (ALU+mem+branch+binupdate)
	ALUOps       uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	BranchMisses uint64
	BinUpdates   uint64 // COBRA binupdate instructions

	// Loads serviced by each level.
	LoadsL1, LoadsL2, LoadsLLC, LoadsDRAM uint64
}

// Sub returns c - o, counter-wise (for phase deltas).
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Instructions: c.Instructions - o.Instructions,
		ALUOps:       c.ALUOps - o.ALUOps,
		Loads:        c.Loads - o.Loads,
		Stores:       c.Stores - o.Stores,
		Branches:     c.Branches - o.Branches,
		BranchMisses: c.BranchMisses - o.BranchMisses,
		BinUpdates:   c.BinUpdates - o.BinUpdates,
		LoadsL1:      c.LoadsL1 - o.LoadsL1,
		LoadsL2:      c.LoadsL2 - o.LoadsL2,
		LoadsLLC:     c.LoadsLLC - o.LoadsLLC,
		LoadsDRAM:    c.LoadsDRAM - o.LoadsDRAM,
	}
}

// Add returns c + o, counter-wise (for merging per-core counters).
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Instructions: c.Instructions + o.Instructions,
		ALUOps:       c.ALUOps + o.ALUOps,
		Loads:        c.Loads + o.Loads,
		Stores:       c.Stores + o.Stores,
		Branches:     c.Branches + o.Branches,
		BranchMisses: c.BranchMisses + o.BranchMisses,
		BinUpdates:   c.BinUpdates + o.BinUpdates,
		LoadsL1:      c.LoadsL1 + o.LoadsL1,
		LoadsL2:      c.LoadsL2 + o.LoadsL2,
		LoadsLLC:     c.LoadsLLC + o.LoadsLLC,
		LoadsDRAM:    c.LoadsDRAM + o.LoadsDRAM,
	}
}

// BranchMissRate returns mispredictions per branch.
func (c Counters) BranchMissRate() float64 {
	if c.Branches == 0 {
		return 0
	}
	return float64(c.BranchMisses) / float64(c.Branches)
}

// MPKI returns branch mispredictions per kilo-instruction.
func (c Counters) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.BranchMisses) / float64(c.Instructions)
}

// Core is one simulated hardware thread bound to a memory hierarchy.
type Core struct {
	cfg Config
	Mem *mem.Hierarchy

	Ctr   Counters
	cycle float64

	// Outstanding-miss slots: issue and completion cycle per busy MSHR;
	// doneAt == 0 marks a free slot. busy mirrors doneAt (bit i set ⇔
	// doneAt[i] != 0) so the occupy scans touch only live slots; New
	// caps the MSHR count at its width.
	issueAt []float64
	doneAt  []float64
	busy    uint64

	// runway caches robRunwayCycles() — a pure function of the config.
	runway float64

	bp gshare
}

// New binds a core model to a hierarchy. It panics on an MSHR count
// outside [1, 64] (the busy mask's width) since configs are
// compile-time constants of the simulated machine.
func New(cfg Config, h *mem.Hierarchy) *Core {
	if cfg.MSHRs < 1 || cfg.MSHRs > 64 {
		panic(fmt.Sprintf("cpu: MSHR count %d out of range [1, 64]", cfg.MSHRs))
	}
	c := &Core{
		cfg:     cfg,
		Mem:     h,
		issueAt: make([]float64, cfg.MSHRs),
		doneAt:  make([]float64, cfg.MSHRs),
	}
	c.runway = c.robRunwayCycles()
	c.bp.init()
	return c
}

// Reset restores the core to its post-New state (counters, clock, MSHR
// slots, branch predictor) for a recycled machine. It leaves the bound
// hierarchy alone; callers reset that separately.
func (c *Core) Reset() {
	c.Ctr = Counters{}
	c.cycle = 0
	for i := range c.doneAt {
		c.issueAt[i], c.doneAt[i] = 0, 0
	}
	c.busy = 0
	c.bp.reset()
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Cycles returns the current cycle count.
func (c *Core) Cycles() float64 { return c.cycle }

// Seconds converts the cycle count to wall time at the configured clock.
func (c *Core) Seconds() float64 { return c.cycle / (c.cfg.FreqGHz * 1e9) }

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.Ctr.Instructions) / c.cycle
}

// AdvanceCycles adds raw stall cycles (used by the COBRA eviction-buffer
// model when the core blocks on a full FIFO).
func (c *Core) AdvanceCycles(n float64) { c.cycle += n }

func (c *Core) issue(n uint64) {
	c.Ctr.Instructions += n
	c.cycle += float64(n) / float64(c.cfg.IssueWidth)
}

// ALU retires n simple integer/FP micro-ops.
func (c *Core) ALU(n int) {
	if n <= 0 {
		return
	}
	c.Ctr.ALUOps += uint64(n)
	c.issue(uint64(n))
}

// robRunwayCycles is how far (in cycles of issue) the core can run past
// the oldest unresolved miss before the ROB fills.
func (c *Core) robRunwayCycles() float64 {
	return float64(c.cfg.ROB) / float64(c.cfg.IssueWidth)
}

// load performs the cache access and applies the MLP timing model.
// Returns the completion cycle of the access.
func (c *Core) load(addr uint64) float64 {
	c.Ctr.Loads++
	c.issue(1)
	level := c.Mem.Load(addr)
	lat := c.Mem.Config().Lat.Of(level)
	if level == mem.LLC || level == mem.DRAM {
		// Shared-LLC NUCA mode: remote banks add NoC hops (also paid on
		// the LLC lookup that precedes a DRAM fill).
		lat += c.Mem.LLCExtraCycles(addr)
	}
	switch level {
	case mem.L1:
		c.Ctr.LoadsL1++
	case mem.L2:
		c.Ctr.LoadsL2++
	case mem.LLC:
		c.Ctr.LoadsLLC++
	default:
		c.Ctr.LoadsDRAM++
	}
	if level == mem.L1 {
		// Pipelined; the 3-cycle load-to-use latency is hidden by OoO issue.
		return c.cycle
	}
	return c.occupy(float64(lat))
}

// occupy allocates an MSHR for a miss of the given latency starting at
// the current cycle, stalling the core if all MSHRs are busy or the ROB
// runway past the oldest outstanding miss is exhausted, and returns the
// completion time.
func (c *Core) occupy(lat float64) float64 {
	doneAt := c.doneAt
	issueAt := c.issueAt
	busy := c.busy
	// One fused scan over the busy slots only: retire completed entries
	// lazily, and — against the post-retire state, with c.cycle
	// unchanged — find the oldest still-outstanding miss. (Equivalent
	// to the scalar model's full-array passes: retirement depends only
	// on pre-scan values, bits iterate in ascending index order, and a
	// clear bit is exactly a free slot.)
	oldest := -1
	var oldestIssue float64
	for m := busy; m != 0; {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if doneAt[i] <= c.cycle {
			doneAt[i] = 0
			busy &^= 1 << uint(i)
			continue
		}
		if oldest < 0 || issueAt[i] < oldestIssue {
			oldest = i
			oldestIssue = issueAt[i]
		}
	}
	// ROB bound: the core cannot issue more than `runway` cycles of work
	// past the issue point of the oldest un-completed miss. When it
	// tries, it waits for that miss to complete (the ROB drains, real
	// time jumps to the completion).
	runway := c.runway
	for oldest >= 0 && c.cycle > oldestIssue+runway {
		if doneAt[oldest] > c.cycle {
			c.cycle = doneAt[oldest]
		}
		doneAt[oldest] = 0
		busy &^= 1 << uint(oldest)
		oldest = -1
		for m := busy; m != 0; {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			if oldest < 0 || issueAt[i] < oldestIssue {
				oldest = i
				oldestIssue = issueAt[i]
			}
		}
	}
	// First free slot; if none, stall until the earliest completion.
	slot := bits.TrailingZeros64(^busy)
	if slot >= len(doneAt) {
		earliest := 0
		for i := range doneAt {
			if doneAt[i] < doneAt[earliest] {
				earliest = i
			}
		}
		c.cycle = doneAt[earliest]
		slot = earliest
	}
	issueAt[slot] = c.cycle
	done := c.cycle + lat
	doneAt[slot] = done
	c.busy = busy | 1<<uint(slot)
	return done
}

// Load performs an independent load: the core continues past it
// (latency overlapped subject to MSHR/ROB limits).
func (c *Core) Load(addr uint64) { c.load(addr) }

// LoadDep performs a dependent load: execution cannot proceed until the
// value arrives (e.g., a loaded value feeding the very next address
// computation). This is what makes pointer-chasing and
// read-modify-write irregular updates expensive.
func (c *Core) LoadDep(addr uint64) {
	done := c.load(addr)
	if done > c.cycle {
		c.cycle = done
	}
}

// Store retires a store. Write latency is buffered (store queue), so
// the core does not stall on the fill; we still walk the hierarchy for
// correct allocation/traffic and charge an issue slot. Store-queue
// pressure from miss bursts is approximated by occupying an MSHR.
func (c *Core) Store(addr uint64) {
	c.Ctr.Stores++
	c.issue(1)
	level := c.Mem.Store(addr)
	if level != mem.L1 {
		c.occupy(float64(c.Mem.Config().Lat.Of(level)) / 2)
	}
}

// StoreNT retires a non-temporal store: one issue slot, write-combining
// in mem; never stalls (fire-and-forget through the WC buffer).
func (c *Core) StoreNT(addr uint64) {
	c.Ctr.Stores++
	c.issue(1)
	c.Mem.StoreNT(addr)
}

// Branch retires a conditional branch identified by pc with the given
// outcome. The gshare predictor decides whether a redirect penalty is
// paid — mispredict rates in the results are measured, not assumed.
func (c *Core) Branch(pc uint64, taken bool) {
	c.Ctr.Branches++
	c.issue(1)
	if !c.bp.predict(pc, taken) {
		c.Ctr.BranchMisses++
		c.cycle += float64(c.cfg.BranchPenalty)
	}
}

// BinUpdate retires a COBRA binupdate instruction: a single store-like
// micro-op that needs no address-generation port (§VI). The C-Buffer
// append itself is modeled by package core; this charges the issue slot.
func (c *Core) BinUpdate() {
	c.Ctr.BinUpdates++
	c.issue(1)
}

// DrainMem waits for all outstanding misses (end-of-phase barrier).
func (c *Core) DrainMem() {
	for i := range c.doneAt {
		if c.doneAt[i] > c.cycle {
			c.cycle = c.doneAt[i]
		}
		c.doneAt[i] = 0
	}
	c.busy = 0
}

// gshare is a standard global-history XOR-indexed 2-bit predictor.
type gshare struct {
	table   []uint8 // 2-bit saturating counters
	history uint64
	mask    uint64
}

const gshareBits = 14

func (g *gshare) init() {
	g.table = make([]uint8, 1<<gshareBits)
	g.mask = 1<<gshareBits - 1
	g.reset()
}

func (g *gshare) reset() {
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	g.history = 0
}

// predict returns whether the prediction matched the outcome, updating
// predictor state.
func (g *gshare) predict(pc uint64, taken bool) bool {
	idx := (pc ^ g.history) & g.mask
	ctr := g.table[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		g.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		g.table[idx] = ctr - 1
	}
	g.history = ((g.history << 1) | b2u(taken)) & g.mask
	return pred == taken
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
