// Package core implements the paper's primary contribution: the COBRA
// architecture model (Cache Optimized Binning for RAdix partitioning).
//
// COBRA replaces software PB's single set of cacheline-sized coalescing
// buffers (C-Buffers) with a hierarchy of hardware-managed C-Buffers,
// one set per cache level, each bounded by that level's reserved
// capacity and indexed by a per-level power-of-two bin range (§IV–§V):
//
//   - bininit reserves ways per level and computes per-level bin ranges
//     (BinInit here).
//   - binupdate appends a tuple to an L1 C-Buffer in one instruction
//     (BinUpdate); offset counters in repurposed metadata bits provide
//     append-only line access.
//   - When a C-Buffer fills, its line enters a FIFO eviction buffer;
//     the next level's binning engine drains it at one tuple per cycle,
//     scattering tuples into that level's C-Buffers. The core stalls
//     only when the L1→L2 eviction buffer is full — a discrete-event
//     queue model clocked by core cycles (§V-D, Figure 13a).
//   - A full LLC C-Buffer is written to its in-memory bin at the offset
//     stored in the line's repurposed tag (§V-E); the bins in memory
//     equal the number of LLC C-Buffers.
//   - binflush walks every level evicting partial C-Buffers (BinFlush).
//
// The model is functional as well as timed: the bins it materializes
// are real and are validated against software PB's output.
package core

import (
	"fmt"

	"cobra/internal/cache"
	"cobra/internal/cpu"
	"cobra/internal/mem"
	"cobra/internal/stats"
)

// Tuple is one binned update: a data index and its payload.
type Tuple struct {
	Key uint32
	Val uint64
}

// Config parameterizes the COBRA extensions.
type Config struct {
	// TupleBytes is the size of one (index, value) tuple: 4, 8, or 16
	// in the paper's workloads. Determines tuples per 64 B C-Buffer.
	TupleBytes int
	// Ways reserved for C-Buffers per level. The paper's default (§V-A):
	// all but one way at L1 and LLC, exactly one way at L2 (the stream
	// prefetcher needs the rest).
	ReserveL1, ReserveL2, ReserveLLC int
	// EvictBufL1L2 is the L1→L2 eviction buffer's capacity in lines
	// (§V-D default: 32). The L2→LLC buffer is not modeled: its
	// back-pressure is never a stall source (DESIGN §7).
	EvictBufL1L2 int
	// Coalesce enables COBRA-COMM (§VII-C): commutative updates to the
	// same key merge in LLC C-Buffers instead of appending.
	Coalesce bool
	// CoalesceFn merges val into old when Coalesce is on (default add).
	CoalesceFn func(old, val uint64) uint64
	// CtxSwitchQuantum, when non-zero, evicts all partially filled LLC
	// C-Buffers every quantum cycles, modeling worst-case preemption
	// (§V-E virtualization, Figure 13c).
	CtxSwitchQuantum float64
	// NoPartition disables static cache partitioning (§V-E "Need for
	// Static Cache Partitioning"): C-Buffer lines live in the ordinary
	// cache ways, subject to the replacement policy and pressure from
	// other program data. The machine then tracks the C-Buffer miss
	// rate the paper reports to be <1% (all competing Binning-phase
	// accesses are streaming).
	NoPartition bool
}

// DefaultConfig returns the paper's default COBRA configuration for a
// given tuple size.
func DefaultConfig(tupleBytes int) Config {
	return Config{
		TupleBytes:   tupleBytes,
		ReserveL1:    7,
		ReserveL2:    1,
		ReserveLLC:   15,
		EvictBufL1L2: 32,
		CoalesceFn:   func(old, val uint64) uint64 { return old + val },
	}
}

// level indices into Machine.lvl.
const (
	lvlL1 = iota
	lvlL2
	lvlLLC
	numLvls
)

// levelState is one cache level's C-Buffer array.
type levelState struct {
	numBufs  int    // C-Buffers at this level (= bins in memory for LLC)
	binShift uint   // key >> binShift = buffer ID (power-of-two bin range)
	waysUsed int    // ways actually occupied by C-Buffers (bininit result)
	baseAddr uint64 // synthetic line addresses when NoPartition is on
	bufs     [][]Tuple
}

// fifo models one FIFO eviction buffer between cache levels with a
// deterministic-service queueing recurrence: entry k completes at
// max(arrival_k, finish_{k-1}) + service. The queue is full when
// `capacity` entries have not yet finished; an arrival then waits.
type fifo struct {
	capacity int
	service  float64   // cycles to drain one line (tuples per line)
	finishes []float64 // ring of last `capacity` finish times
	head     int
	lastFin  float64

	Stalls      float64 // cycles callers waited on a full queue
	LinesServed uint64
}

func newFIFO(capacity int, service float64) *fifo {
	return &fifo{capacity: capacity, service: service, finishes: make([]float64, capacity)}
}

// push enqueues a line arriving at `now`, returning the cycles the
// caller stalls on a full queue (and advances its clock by).
func (f *fifo) push(now float64) (stall float64) {
	oldest := f.finishes[f.head]
	if oldest > now {
		stall = oldest - now
		now = oldest
	}
	start := now
	if f.lastFin > start {
		start = f.lastFin
	}
	fin := start + f.service
	f.finishes[f.head] = fin
	f.head = (f.head + 1) % f.capacity
	f.lastFin = fin
	f.Stalls += stall
	f.LinesServed++
	return stall
}

// Stats aggregates the COBRA machine's activity.
type Stats struct {
	BinUpdates    uint64
	L1Evictions   uint64 // full L1 C-Buffer lines pushed to FIFO1
	L2Evictions   uint64
	LLCEvictions  uint64 // full LLC C-Buffer lines written to memory
	FlushLines    uint64 // partial lines evicted by BinFlush
	PartialWasteB uint64 // DRAM bytes wasted writing partial lines
	MemWriteBytes uint64 // total bin bytes written to DRAM
	StallCycles   float64
	CtxSwitches   uint64
	CtxWasteBytes uint64
	FlushCycles   float64
	InitCycles    float64

	// NoPartition mode only: how often the core's C-Buffer inserts
	// found their line in the L1 (§V-E claims a <1% miss rate).
	CBufAccesses uint64
	CBufMisses   uint64
}

// CBufMissRate returns the unpartitioned C-Buffer L1 miss rate.
func (s Stats) CBufMissRate() float64 {
	if s.CBufAccesses == 0 {
		return 0
	}
	return float64(s.CBufMisses) / float64(s.CBufAccesses)
}

// Machine couples a core (and its hierarchy) with COBRA state. Every
// micro-op the machine charges is issued on CPU and has retired when
// the call returns, so the machine reads the clock and the hierarchy
// wherever it needs them.
type Machine struct {
	CPU *cpu.Core
	cfg Config

	tuplesPerLine int
	numIndices    uint64

	lvl   [numLvls]levelState
	fifo1 *fifo // L1 -> L2

	// Bins materialized in memory (per-key-range), appended on LLC
	// evictions and flush. BinInit leaves every bin empty and nil,
	// reusing the headers Bins already holds when there is room for one
	// per LLC C-Buffer. A caller that sized the bins in an Init pass may
	// then replace Bins with NumBins zero-length windows of exactly each
	// bin's capacity in its own array (BinBasePtr + BinOffset, §V-E), so
	// no eviction grows a bin.
	Bins [][]Tuple

	nextCtxSwitch float64

	St Stats

	store  *CBufStore
	inited bool
}

// CBufStore is the backing storage BinInit carves every level's
// C-Buffers from. A store outlives the machine that filled it: handing
// the store of a machine that is out of use to NewMachine lets the
// next BinInit reuse its arrays instead of allocating and zeroing
// megabytes per run. Reuse is invisible to the simulation — BinInit
// carves each buffer as a zero-length window, so stale tuples beyond a
// buffer's length are never read.
type CBufStore struct {
	bufs [numLvls][][]Tuple
	flat [numLvls][]Tuple
}

// carve returns numBufs zero-length buffers of perBuf capacity each for
// level l, backed by one flat array.
func (st *CBufStore) carve(l, numBufs, perBuf int) [][]Tuple {
	if need := numBufs * perBuf; cap(st.flat[l]) < need {
		st.flat[l] = make([]Tuple, need)
	}
	if cap(st.bufs[l]) < numBufs {
		st.bufs[l] = make([][]Tuple, numBufs)
	}
	flat, bufs := st.flat[l], st.bufs[l][:numBufs]
	// Three-index subslices pin each buffer's capacity to its own
	// line-sized window, so appends can never bleed into a neighbour.
	for i := range bufs {
		bufs[i] = flat[i*perBuf : i*perBuf : (i+1)*perBuf]
	}
	return bufs
}

// NewMachine builds a COBRA machine issuing on an existing core,
// carving its C-Buffers from st, which no other live machine may use.
func NewMachine(st *CBufStore, c *cpu.Core, cfg Config) *Machine {
	if cfg.TupleBytes <= 0 || 64%cfg.TupleBytes != 0 {
		panic(fmt.Sprintf("core: tuple size %d must divide the 64 B line", cfg.TupleBytes))
	}
	if cfg.CoalesceFn == nil {
		cfg.CoalesceFn = func(old, val uint64) uint64 { return old + val }
	}
	return &Machine{CPU: c, cfg: cfg, tuplesPerLine: 64 / cfg.TupleBytes, store: st}
}

// NumBins returns the number of in-memory bins (= LLC C-Buffers).
func (m *Machine) NumBins() int { return m.lvl[lvlLLC].numBufs }

// BinInit executes the bininit instruction for every level: reserve the
// configured ways, compute the smallest power-of-two bin range whose
// C-Buffers fit the reserved capacity, and record the ways actually
// used (§V-A). numIndices is the size of the data namespace (e.g.,
// vertex count). It also initializes the in-memory bins, whose lengths
// are the repurposed-tag bin offsets (§V-E).
func (m *Machine) BinInit(numIndices uint64) error {
	if numIndices == 0 {
		return fmt.Errorf("core: BinInit with zero indices")
	}
	h := m.CPU.Mem
	caches := [numLvls]*cache.Cache{&h.L1c, &h.L2c, &h.LLCc}
	reserve := [numLvls]int{m.cfg.ReserveL1, m.cfg.ReserveL2, m.cfg.ReserveLLC}
	for l := 0; l < numLvls; l++ {
		c := caches[l]
		ways := reserve[l]
		if ways >= c.Ways() {
			ways = c.Ways() - 1
		}
		if ways < 0 {
			ways = 0
		}
		maxBufs := ways * c.Sets() // one C-Buffer per reserved line
		if maxBufs < 1 {
			return fmt.Errorf("core: level %d reserves no capacity", l)
		}
		// Smallest power-of-two bin range such that bufs fit: range =
		// 2^s with ceil(numIndices/2^s) <= maxBufs.
		shift := uint(0)
		for stats.DivCeil(numIndices, 1<<shift) > uint64(maxBufs) {
			shift++
		}
		numBufs := int(stats.DivCeil(numIndices, 1<<shift))
		// Ways actually used (bininit frees unused reserved ways, §V-A).
		waysUsed := int(stats.DivCeil(uint64(numBufs), uint64(c.Sets())))
		if m.cfg.NoPartition {
			// §V-E: no reservation; C-Buffer lines compete with program
			// data under the ordinary replacement policy.
			waysUsed = 0
		}
		if err := c.ReserveWays(waysUsed); err != nil {
			return fmt.Errorf("core: level %d: %v", l, err)
		}
		// One flat backing array for all C-Buffers of this level instead
		// of numBufs little allocations (the LLC level alone has tens of
		// thousands), reused from the store when it is large enough.
		m.lvl[l] = levelState{
			numBufs:  numBufs,
			binShift: shift,
			waysUsed: waysUsed,
			baseAddr: 1<<40 + uint64(l)<<36,
			bufs:     m.store.carve(l, numBufs, m.tuplesPerLine),
		}
	}
	// Monotonicity check: deeper levels must have >= bins (the paper's
	// construction guarantees it since capacity grows down the
	// hierarchy; guard against degenerate configs).
	if m.lvl[lvlL2].numBufs < m.lvl[lvlL1].numBufs || m.lvl[lvlLLC].numBufs < m.lvl[lvlL2].numBufs {
		return fmt.Errorf("core: C-Buffer counts not monotone: %d/%d/%d",
			m.lvl[lvlL1].numBufs, m.lvl[lvlL2].numBufs, m.lvl[lvlLLC].numBufs)
	}
	m.numIndices = numIndices
	m.fifo1 = newFIFO(m.cfg.EvictBufL1L2, float64(m.tuplesPerLine))
	if n := m.lvl[lvlLLC].numBufs; cap(m.Bins) < n {
		m.Bins = make([][]Tuple, n)
	} else {
		m.Bins = m.Bins[:n]
		clear(m.Bins)
	}
	// Init cost: one bininit per level plus one tag-offset write per LLC
	// C-Buffer (§V-E "initializes the starting offsets ... using a new
	// ISA instruction"). Charge issue slots for them.
	m.CPU.ALU(3 + m.lvl[lvlLLC].numBufs)
	m.St.InitCycles = m.CPU.Cycles()
	if m.cfg.CtxSwitchQuantum > 0 {
		m.nextCtxSwitch = m.St.InitCycles + m.cfg.CtxSwitchQuantum
	}
	m.inited = true
	return nil
}

// BinUpdate executes the binupdate instruction: one issue slot, then a
// hardware append into the L1 C-Buffer selected by the L1 bin range.
// A filled L1 C-Buffer line is pushed into the L1→L2 eviction buffer;
// the core stalls only if that FIFO is full.
func (m *Machine) BinUpdate(key uint32, val uint64) {
	if !m.inited {
		panic("core: BinUpdate before BinInit")
	}
	if uint64(key) >= m.numIndices {
		panic(fmt.Sprintf("core: key %d out of range [0,%d)", key, m.numIndices))
	}
	m.CPU.BinUpdate()
	m.St.BinUpdates++
	if m.cfg.CtxSwitchQuantum > 0 && m.CPU.Cycles() >= m.nextCtxSwitch {
		m.contextSwitch()
	}
	l1 := &m.lvl[lvlL1]
	id := key >> l1.binShift
	if m.cfg.NoPartition {
		// The C-Buffer line is an ordinary cached line: walk the real
		// hierarchy and record whether the insert found it in L1.
		m.St.CBufAccesses++
		if m.CPU.Mem.Access(l1.baseAddr+uint64(id)*64, mem.RefStore) != mem.L1 {
			m.St.CBufMisses++
		}
	}
	l1.bufs[id] = append(l1.bufs[id], Tuple{key, val})
	if len(l1.bufs[id]) == m.tuplesPerLine {
		m.evictL1(int(id))
	}
}

// evictL1 pushes a full L1 C-Buffer line into FIFO1 and lets the L2
// binning engine scatter its tuples.
func (m *Machine) evictL1(id int) {
	l1 := &m.lvl[lvlL1]
	line := l1.bufs[id]
	l1.bufs[id] = l1.bufs[id][:0]
	m.St.L1Evictions++
	c := m.CPU
	if stall := m.fifo1.push(c.Cycles()); stall > 0 {
		c.AdvanceCycles(stall)
		m.St.StallCycles += stall
	}
	m.scatterToL2(line)
}

// scatterToL2 is the L2 binning engine: unpack each tuple of an evicted
// line into L2 C-Buffers, handing full lines to the LLC engine.
func (m *Machine) scatterToL2(line []Tuple) {
	l2 := &m.lvl[lvlL2]
	for _, t := range line {
		id := t.Key >> l2.binShift
		l2.bufs[id] = append(l2.bufs[id], t)
		if len(l2.bufs[id]) == m.tuplesPerLine {
			m.St.L2Evictions++
			// Safe aliasing: the LLC scatter never touches L2 buffers.
			m.scatterToLLC(l2.bufs[id])
			l2.bufs[id] = l2.bufs[id][:0]
		}
	}
}

// scatterToLLC is the LLC binning engine: insert tuples into LLC
// C-Buffers, coalescing when configured (COBRA-COMM); full buffers are
// written to their in-memory bin at the tag-stored offset.
func (m *Machine) scatterToLLC(line []Tuple) {
	llc := &m.lvl[lvlLLC]
	for _, t := range line {
		id := t.Key >> llc.binShift
		if m.cfg.Coalesce {
			if merged := m.tryCoalesce(llc, int(id), t); merged {
				continue
			}
		}
		llc.bufs[id] = append(llc.bufs[id], t)
		if len(llc.bufs[id]) == m.tuplesPerLine {
			m.evictLLC(int(id), false)
		}
	}
}

func (m *Machine) tryCoalesce(llc *levelState, id int, t Tuple) bool {
	buf := llc.bufs[id]
	for i := range buf {
		if buf[i].Key == t.Key {
			buf[i].Val = m.cfg.CoalesceFn(buf[i].Val, t.Val)
			return true
		}
	}
	return false
}

// evictLLC writes an LLC C-Buffer's tuples to its in-memory bin
// (BinBasePtr + BinOffset[binID], §V-E) as a line-sized DRAM burst;
// the offset is the bin's length, so the append bumps it. Partial lines (flush/preemption) still cost a
// full 64 B write — the waste measured in Figure 13c.
func (m *Machine) evictLLC(id int, partial bool) {
	llc := &m.lvl[lvlLLC]
	buf := llc.bufs[id]
	if len(buf) == 0 {
		return
	}
	m.Bins[id] = append(m.Bins[id], buf...)
	m.CPU.Mem.WriteLineDirect(1)
	m.St.MemWriteBytes += 64
	if partial {
		waste := uint64(m.tuplesPerLine-len(buf)) * uint64(m.cfg.TupleBytes)
		m.St.PartialWasteB += waste
		m.St.FlushLines++
	} else {
		m.St.LLCEvictions++
	}
	llc.bufs[id] = llc.bufs[id][:0]
}

// contextSwitch models worst-case preemption: every partially filled
// LLC C-Buffer is evicted (partial 64 B writes), wasting bandwidth.
func (m *Machine) contextSwitch() {
	m.St.CtxSwitches++
	llc := &m.lvl[lvlLLC]
	before := m.St.PartialWasteB
	for id := range llc.bufs {
		if n := len(llc.bufs[id]); n > 0 && n < m.tuplesPerLine {
			m.evictLLC(id, true)
		}
	}
	m.St.CtxWasteBytes += m.St.PartialWasteB - before
	m.nextCtxSwitch += m.cfg.CtxSwitchQuantum
}

// BinFlush executes the binflush instruction (§V-E): serially walk L1,
// then L2, then the LLC, force-evicting non-empty C-Buffers so every
// tuple lands in an in-memory bin. The walk and the partial-line
// scatters cost cycles (engine work is on the critical path here).
func (m *Machine) BinFlush() {
	if !m.inited {
		panic("core: BinFlush before BinInit")
	}
	c := m.CPU
	start := c.Cycles()
	var engineTuples int
	l1 := &m.lvl[lvlL1]
	for id := range l1.bufs {
		if len(l1.bufs[id]) > 0 {
			line := l1.bufs[id]
			l1.bufs[id] = l1.bufs[id][:0]
			engineTuples += len(line)
			m.St.FlushLines++
			m.scatterToL2(line)
		}
	}
	l2 := &m.lvl[lvlL2]
	for id := range l2.bufs {
		if len(l2.bufs[id]) > 0 {
			line := l2.bufs[id]
			l2.bufs[id] = l2.bufs[id][:0]
			engineTuples += len(line)
			m.St.FlushLines++
			m.scatterToLLC(line)
		}
	}
	llc := &m.lvl[lvlLLC]
	for id := range llc.bufs {
		if len(llc.bufs[id]) > 0 {
			engineTuples += len(llc.bufs[id])
			m.evictLLC(id, true)
		}
	}
	// The serial walk costs one cycle per C-Buffer line visited plus one
	// per tuple moved by the engines.
	walk := float64(l1.numBufs + l2.numBufs + llc.numBufs)
	c.AdvanceCycles(walk + float64(engineTuples))
	c.DrainMem()
	m.St.FlushCycles += c.Cycles() - start
}

// TotalBinnedTuples counts tuples materialized in memory bins.
func (m *Machine) TotalBinnedTuples() int {
	n := 0
	for _, b := range m.Bins {
		n += len(b)
	}
	return n
}

// BinShiftLLC returns the LLC bin shift: in-memory bin i holds keys
// [i<<shift, (i+1)<<shift).
func (m *Machine) BinShiftLLC() uint { return m.lvl[lvlLLC].binShift }

// EvictionStalls returns (stall cycles, lines served) for the L1→L2
// eviction buffer — the quantity swept in Figure 13a.
func (m *Machine) EvictionStalls() (float64, uint64) {
	if m.fifo1 == nil {
		return 0, 0
	}
	return m.fifo1.Stalls, m.fifo1.LinesServed
}
