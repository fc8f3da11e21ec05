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

	"cobra/internal/mem"
	"cobra/internal/stats"
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

	// Outstanding misses. A miss is outstanding while its completion
	// cycle is past the clock, and timing reads only the multiset of
	// outstanding (issue, done) pairs, never which MSHR holds one. ring
	// holds the allocations in order — issue order, as the clock never
	// decreases — from ring[head&mask] to ring[(tail-1)&mask]; entries
	// that completed are skipped when the head reaches them. pend holds
	// the completion cycles of the unretired misses, at most MSHRs of
	// them, ascending from pend[lo&mask] to pend[(hi-1)&mask]: another
	// ring, so retiring the earliest is an index step.
	ring       []mshrEntry
	head, tail int
	pend       []float64
	lo, hi     int

	// runway caches robRunwayCycles() — a pure function of the config.
	runway float64

	// Hoisted once in New (the config is immutable): the clock
	// increment n/IssueWidth of an n-op issue group for n < len(issueN)
	// — the same constant division issue would perform, so reusing
	// its result is bit-identical — the issue width, the load latency
	// per servicing level, and the branch misprediction penalty.
	issueN  [16]float64
	width   float64
	lat     [4]uint32
	penalty float64

	bp gshare
}

// mshrEntry is one allocated miss: its issue and completion cycle.
type mshrEntry struct{ issue, done float64 }

// ringSize is the initial allocation-ring length: a power of two of at
// least ROB+2 entries. Each miss follows a one-op issue group, so after
// occupy the ring's live head is at most ROB+1 allocations old, plus
// the new one; occupy grows the ring if it ever fills, so the bound
// sets only the speed, never the timing.
func ringSize(cfg Config) int { return int(stats.NextPow2(uint64(cfg.ROB + 2))) }

// New binds a core model to a hierarchy. It panics on an MSHR count
// below 1 since configs are compile-time constants of the simulated
// machine.
func New(cfg Config, h *mem.Hierarchy) *Core {
	if cfg.MSHRs < 1 {
		panic(fmt.Sprintf("cpu: MSHR count %d, want at least 1", cfg.MSHRs))
	}
	c := &Core{
		cfg:  cfg,
		Mem:  h,
		ring: make([]mshrEntry, ringSize(cfg)),
		pend: make([]float64, stats.NextPow2(uint64(cfg.MSHRs))),
	}
	c.runway = c.robRunwayCycles()
	c.width = float64(cfg.IssueWidth)
	for n := range c.issueN {
		c.issueN[n] = float64(n) / c.width
	}
	for l := range c.lat {
		c.lat[l] = h.Config().Lat.Of(mem.Level(l))
	}
	c.penalty = float64(cfg.BranchPenalty)
	c.bp.init()
	return c
}

// Reset restores the core to its post-New state (counters, clock, MSHR
// queue, branch predictor) for a recycled machine. It leaves the bound
// hierarchy alone; callers reset that separately.
func (c *Core) Reset() {
	c.Ctr = Counters{}
	c.cycle = 0
	if n := ringSize(c.cfg); len(c.ring) != n {
		c.ring = make([]mshrEntry, n)
	} else {
		clear(c.ring)
	}
	c.head, c.tail = 0, 0
	clear(c.pend)
	c.lo, c.hi = 0, 0
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

// issue retires an issue group of n micro-ops: the clock advances by
// n/IssueWidth.
func (c *Core) issue(n uint64) {
	c.Ctr.Instructions += n
	if n < uint64(len(c.issueN)) {
		c.cycle += c.issueN[n]
	} else {
		c.cycle += float64(n) / c.width
	}
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

// load resolves the access in the hierarchy and applies the MLP timing
// model. Returns the completion cycle of the access.
func (c *Core) load(addr uint64) float64 {
	c.Ctr.Loads++
	c.issue(1)
	level := c.Mem.Access(addr, mem.RefLoad)
	if level == mem.L1 {
		// Pipelined; the 3-cycle load-to-use latency is hidden by OoO issue.
		c.Ctr.LoadsL1++
		return c.cycle
	}
	lat := c.lat[level]
	switch level {
	case mem.L2:
		c.Ctr.LoadsL2++
	case mem.LLC:
		c.Ctr.LoadsLLC++
	default:
		c.Ctr.LoadsDRAM++
	}
	if level != mem.L2 {
		// Shared-LLC NUCA mode: remote banks add NoC hops (also paid on
		// the LLC lookup that precedes a DRAM fill).
		lat += c.Mem.LLCExtraCycles(addr)
	}
	return c.occupy(float64(lat))
}

// occupy allocates an MSHR for a miss of the given latency starting at
// the current cycle, stalling the core if all MSHRs are busy or the ROB
// runway past the oldest outstanding miss is exhausted, and returns the
// completion time.
func (c *Core) occupy(lat float64) float64 {
	// ROB bound: the core cannot issue more than `runway` cycles of work
	// past the issue point of the oldest outstanding miss. When it
	// tries, it waits for that miss to complete (the ROB drains, real
	// time jumps to the completion). The walk is in allocation order,
	// so the first outstanding entry is the oldest; completed ones are
	// dropped on the way. Past an entry within the runway, every later
	// one is too (issue order), so the walk stops there.
	ring, mask := c.ring, len(c.ring)-1
	head, tail := c.head, c.tail
	for ; head != tail; head++ {
		e := &ring[head&mask]
		if e.done <= c.cycle {
			continue
		}
		if c.cycle <= e.issue+c.runway {
			break
		}
		c.cycle = e.done
	}
	c.head = head
	// Retire every miss complete by now. If the ROB bound moved the
	// clock, it retired at least the miss it waited for, so an MSHR is
	// free; otherwise all may be busy, and the core stalls until the
	// earliest completion, whose MSHR the new miss takes.
	pend, pmask := c.pend, len(c.pend)-1
	lo, hi := c.lo, c.hi
	for lo != hi && pend[lo&pmask] <= c.cycle {
		lo++
	}
	if hi-lo == c.cfg.MSHRs {
		c.cycle = pend[lo&pmask]
		lo++
	}
	done := c.cycle + lat
	// Insert done, keeping pend ascending.
	i := hi
	for ; i != lo && pend[(i-1)&pmask] > done; i-- {
		pend[i&pmask] = pend[(i-1)&pmask]
	}
	pend[i&pmask] = done
	c.lo, c.hi = lo, hi+1
	if tail-head == len(ring) {
		c.growRing()
	}
	c.ring[c.tail&(len(c.ring)-1)] = mshrEntry{issue: c.cycle, done: done}
	c.tail++
	return done
}

// growRing doubles the allocation ring, keeping its entries in order.
func (c *Core) growRing() {
	ring := make([]mshrEntry, 2*len(c.ring))
	n := 0
	for i := c.head; i != c.tail; i++ {
		ring[n] = c.ring[i&(len(c.ring)-1)]
		n++
	}
	c.ring, c.head, c.tail = ring, 0, n
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
	if level := c.Mem.Access(addr, mem.RefStore); level != mem.L1 {
		c.occupy(float64(c.lat[level]) / 2)
	}
}

// StoreNT retires a non-temporal store: one issue slot, write-combining
// in mem; never stalls (fire-and-forget through the WC buffer).
func (c *Core) StoreNT(addr uint64) {
	c.Ctr.Stores++
	c.issue(1)
	c.Mem.Access(addr, mem.RefStoreNT)
}

// Branch retires a conditional branch identified by pc with the given
// outcome. The gshare predictor decides whether a redirect penalty is
// paid — mispredict rates in the results are measured, not assumed.
func (c *Core) Branch(pc uint64, taken bool) {
	c.Ctr.Branches++
	c.issue(1)
	if !c.bp.predict(pc, taken) {
		c.Ctr.BranchMisses++
		c.cycle += c.penalty
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
	if c.hi != c.lo {
		if last := c.pend[(c.hi-1)&(len(c.pend)-1)]; last > c.cycle {
			c.cycle = last
		}
	}
	c.lo = c.hi
	c.head = c.tail
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
