// Package sim assembles the simulated machine (core + hierarchy +
// COBRA extensions) and runs workloads through the execution schemes
// the paper evaluates: Baseline, PB-SW, PB-SW-IDEAL, COBRA, COBRA-COMM,
// and PHI. It produces the Metrics every figure is built from.
//
// Each scheme has one runner (multicore.go), which drives a gang of
// Arch.Cores() per-core machines: every core has its own L1/L2, op
// pipeline and private NUCA LLC slice, as the paper's PB and COBRA
// duplicate all bins and C-Buffers per thread and privatize LLC banks
// per core (see DESIGN.md §9). The default one-core machine is a gang
// of one: one representative core owning all the work.
package sim

import (
	"fmt"
	"sync"

	"cobra/internal/core"
	"cobra/internal/cpu"
	"cobra/internal/mem"
)

// Arch is the simulated architecture (Table II defaults).
type Arch struct {
	Mem mem.Config
	CPU cpu.Config

	// NumCores is the number of simulated cores; 0 and 1 both mean one
	// core owning all the work. Every scheme shards across the
	// NumCores per-core machines — each with its own L1/L2, OpBuf
	// pipeline, and private NUCA LLC slice — and merges per-core
	// Metrics via MergeMetrics, which is the identity on one core.
	// See DESIGN.md §9 for the shard/merge model.
	NumCores int

	// opAtATime gives machines built from this Arch an op buffer of
	// capacity 1, which retires every micro-op as it is emitted — the
	// whole-run oracle the batched pipeline must match bit for bit.
	// Only the differential tests set it, through a hook in
	// export_test.go.
	opAtATime bool
}

// DefaultMultiCores is the paper's evaluated machine width (Table II:
// a 16-core OoO CMP), used when a caller asks for "multi-core" without
// naming a count.
const DefaultMultiCores = 16

// DefaultArch mirrors Table II's per-core parameters on one core.
func DefaultArch() Arch {
	return Arch{Mem: mem.DefaultConfig(), CPU: cpu.DefaultConfig()}
}

// WithCores returns a copy of a simulating n cores (n <= 0 selects
// DefaultMultiCores, the paper's 16).
func (a Arch) WithCores(n int) Arch {
	if n <= 0 {
		n = DefaultMultiCores
	}
	a.NumCores = n
	return a
}

// Cores resolves the configured core count (0 means 1).
func (a Arch) Cores() int {
	if a.NumCores <= 1 {
		return 1
	}
	return a.NumCores
}

// Region is an allocated block of simulated address space.
type Region struct {
	Base uint64
	Size uint64
}

// Addr returns the byte address at offset off.
func (r Region) Addr(off uint64) uint64 {
	return r.Base + off
}

// Mach is one simulated machine instance for one run.
//
// Every micro-op goes through B, the batched op pipeline (COBRA's
// core.Machine included). CPU and H are read and driven directly only
// for phase bookkeeping — clocks, counters, DrainMem, direct DRAM
// traffic — and any such access must be preceded by B.Flush().
//
// Lifecycle: NewMach checks a machine out, the run drives it, and
// Release returns it to a pool, from which a later NewMach with an
// equal Arch takes it back after a full reset. Every runner releases
// the machines it checked out, once, after its last use of them.
type Mach struct {
	CPU *cpu.Core
	H   *mem.Hierarchy
	B   *cpu.OpBuf

	opAtATime bool // B has capacity 1 (Arch.opAtATime)
	next      uint64

	// cbufs outlives each run's COBRA machine so the next BinInit on
	// this Mach reuses its C-Buffer arrays.
	cbufs    core.CBufStore
	released bool
}

// machPool holds released machines. Any Arch may be pooled; NewMach
// takes a machine back only when it was built for an equal Arch.
var machPool sync.Pool

// NewMach checks out a machine for a: a released machine built for an
// equal Arch, reset to the post-construction state, or else a new one.
// The two are indistinguishable to a run (see recycle).
func NewMach(a Arch) *Mach {
	if m, ok := machPool.Get().(*Mach); ok && m.fits(a) {
		m.recycle()
		return m
	}
	return buildMach(a)
}

// buildMach constructs a machine from scratch.
func buildMach(a Arch) *Mach {
	h := mem.New(a.Mem)
	c := cpu.New(a.CPU, h)
	b := cpu.NewOpBuf(c)
	if a.opAtATime {
		b = cpu.NewOpBufCap(c, 1)
	}
	return &Mach{CPU: c, H: h, B: b, opAtATime: a.opAtATime, next: 1 << 20}
}

// fits reports whether m was built for a machine equal to a's. The core
// count is not part of a machine: every core of a gang is the same.
func (m *Mach) fits(a Arch) bool {
	return m.H.Config() == a.Mem && m.CPU.Config() == a.CPU && m.opAtATime == a.opAtATime
}

// recycle resets a released machine to the state buildMach leaves:
// caches, prefetcher, write-combining, DRAM counts, core clock,
// counters, MSHRs, branch predictor, op buffer and allocator. Only the
// C-Buffer store keeps its (never-read) contents.
func (m *Mach) recycle() {
	m.H.Reset()
	m.CPU.Reset()
	m.B.Reset()
	m.next = 1 << 20
	m.released = false
}

// Release returns m to the pool. The caller must be done with m and
// with everything bound to it (appliers, COBRA machines). Releasing a
// machine twice panics: the pool would hand the same machine to two
// runs.
func (m *Mach) Release() {
	if m.released {
		panic("sim: Mach released twice")
	}
	m.released = true
	machPool.Put(m)
}

// Alloc reserves a page-aligned region of simulated address space.
// Regions never overlap, so distinct arrays contend only through cache
// geometry, as on real hardware.
func (m *Mach) Alloc(bytes uint64) Region {
	const pageMask = 4096 - 1
	base := (m.next + pageMask) &^ uint64(pageMask)
	m.next = base + bytes
	return Region{Base: base, Size: bytes}
}

// App is one irregular-update workload, expressed as (1) an update
// stream replayable from its input and (2) an applier that performs
// each update functionally while driving the machine with the real
// addresses it touches. Package kernels provides constructors for the
// paper's nine applications.
type App struct {
	Name        string
	InputName   string
	Commutative bool
	// TupleBytes is the binned tuple size (4/8/16 in Table "workloads").
	TupleBytes int
	// NumKeys is the irregular data namespace (vertices, keys, columns).
	NumKeys int
	// NumUpdates is the length of the update stream.
	NumUpdates int
	// StreamBytes is input bytes streamed per update (edge = 8 B, ...).
	StreamBytes int
	// ForEach replays the update stream in input order. newGroup marks
	// the first update of an input group (vertex/row) — it drives the
	// inner-loop branch model, making power-law trip counts genuinely
	// hard to predict (paper footnote 3).
	ForEach func(emit func(key uint32, val uint64, newGroup bool))
	// NewApplier returns a fresh functional state bound to mach regions.
	NewApplier func(m *Mach) Applier
	// ApplyALU is the applier's pure-ALU work per update, charged by the
	// harness (address math, value ops).
	ApplyALU int
	// Reduce merges two update values for the same key, for apps whose
	// updates coalesce losslessly in integer hardware (counts: add,
	// masks: or). nil means PHI and COBRA-COMM are inapplicable even if
	// the math is abstractly commutative (e.g., float adds).
	Reduce func(a, b uint64) uint64
}

// Applier performs one update against real data arrays, issuing the
// update's irregular accesses on the machine.
type Applier interface {
	Apply(key uint32, val uint64)
}

// ShardApplier is an Applier that supports multi-core sharding: Shard
// returns a view bound to machine m that SHARES the receiver's
// functional state (the real data slices) while issuing its machine
// ops on m. Sharded runs partition the key range across cores, so
// per-core views touch disjoint slice elements and the shared arrays
// end up bitwise identical to a single-core run. Apps whose applier
// does not implement this cannot run with Arch.NumCores > 1.
type ShardApplier interface {
	Applier
	Shard(m *Mach) Applier
}

// Validate sanity-checks an app definition.
func (a *App) Validate() error {
	if a.NumKeys <= 0 || a.NumUpdates <= 0 {
		return fmt.Errorf("sim: app %s has empty workload", a.Name)
	}
	if a.TupleBytes != 4 && a.TupleBytes != 8 && a.TupleBytes != 16 {
		return fmt.Errorf("sim: app %s tuple size %d not in {4,8,16}", a.Name, a.TupleBytes)
	}
	if a.ForEach == nil || a.NewApplier == nil {
		return fmt.Errorf("sim: app %s missing stream or applier", a.Name)
	}
	return nil
}

// Metrics is what one simulated run reports.
type Metrics struct {
	App    string
	Input  string
	Scheme Scheme

	Cycles      float64
	InitCycles  float64
	BinCycles   float64 // Binning phase
	AccumCycles float64 // Accumulate phase

	Ctr      cpu.Counters // whole run
	BinCtr   cpu.Counters // Binning phase only
	AccumCtr cpu.Counters

	L1Misses, L2Misses, LLCMisses uint64
	// LLCAccesses carries the LLC demand-access count so LLCMissRate
	// can be re-derived exactly when per-core metrics are merged.
	LLCAccesses uint64
	LLCMissRate float64
	DRAM        mem.Traffic

	// Cores is the number of simulated cores this Metrics aggregates
	// (1 for a one-core run and for each per-core shard).
	Cores int

	// Per-phase memory behaviour (Init excluded from Bin/Accum, so
	// Figure 4b and Figure 14 compare the phases the paper compares).
	BinMem   PhaseMem
	AccumMem PhaseMem

	NumBins        int
	EvictStalls    float64
	EvictStallFrac float64 // stall cycles / binning cycles
	CtxWasteBytes  uint64
	CtxSwitches    uint64
	CBufMissRate   float64 // NoPartition runs: unpartitioned C-Buffer L1 miss rate
}

// PhaseMem is a per-phase snapshot delta of memory-system activity.
type PhaseMem struct {
	L1Misses, L2Misses, LLCMisses uint64
	DRAMReadLines, DRAMWriteLines uint64
}

// Sum returns a + b field-wise.
func (a PhaseMem) Sum(b PhaseMem) PhaseMem {
	return PhaseMem{
		L1Misses:       a.L1Misses + b.L1Misses,
		L2Misses:       a.L2Misses + b.L2Misses,
		LLCMisses:      a.LLCMisses + b.LLCMisses,
		DRAMReadLines:  a.DRAMReadLines + b.DRAMReadLines,
		DRAMWriteLines: a.DRAMWriteLines + b.DRAMWriteLines,
	}
}

// DRAMBytes returns total DRAM traffic in bytes for the phase.
func (a PhaseMem) DRAMBytes() uint64 { return (a.DRAMReadLines + a.DRAMWriteLines) * 64 }

// memSnap captures cumulative memory counters for phase deltas.
func memSnap(mach *Mach) PhaseMem {
	l1, l2, llc := mach.H.MissSummary()
	return PhaseMem{
		L1Misses:       l1,
		L2Misses:       l2,
		LLCMisses:      llc,
		DRAMReadLines:  mach.H.DRAMTraffic.ReadLines,
		DRAMWriteLines: mach.H.DRAMTraffic.WriteLines,
	}
}

func (a PhaseMem) sub(b PhaseMem) PhaseMem {
	return PhaseMem{
		L1Misses:       a.L1Misses - b.L1Misses,
		L2Misses:       a.L2Misses - b.L2Misses,
		LLCMisses:      a.LLCMisses - b.LLCMisses,
		DRAMReadLines:  a.DRAMReadLines - b.DRAMReadLines,
		DRAMWriteLines: a.DRAMWriteLines - b.DRAMWriteLines,
	}
}

// Speedup returns base.Cycles / m.Cycles.
func (m Metrics) Speedup(base Metrics) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return base.Cycles / m.Cycles
}

// finish snapshots hierarchy-level stats into the metrics.
func (m *Metrics) finish(mach *Mach) {
	m.Ctr = mach.CPU.Ctr
	m.L1Misses, m.L2Misses, m.LLCMisses = mach.H.MissSummary()
	m.LLCAccesses = mach.H.LLCc.Stats.Accesses()
	m.LLCMissRate = mach.H.LLCc.Stats.MissRate()
	m.DRAM = mach.H.DRAMTraffic
	m.Cycles = mach.CPU.Cycles()
	if m.Cores == 0 {
		m.Cores = 1
	}
}

// branch PCs used by the harness (arbitrary distinct values).
const (
	pcInnerLoop = 0x100 // per-update loop branch (taken within a group)
	pcCBufFull  = 0x200 // PB-SW "C-Buffer full?" branch
	pcBinLoop   = 0x300 // accumulate per-bin loop branch
)

// IdealPB composes PB-SW-IDEAL (Figure 5): the Binning phase of a
// small-bin run with the Accumulate phase of a large-bin run — the
// unrealizable best of both worlds.
func IdealPB(binning, accumulate Metrics) Metrics {
	m := binning
	m.Scheme = SchemePBIdeal
	m.AccumCycles = accumulate.AccumCycles
	m.AccumCtr = accumulate.AccumCtr
	m.AccumMem = accumulate.AccumMem
	m.Cycles = binning.InitCycles + binning.BinCycles + accumulate.AccumCycles
	m.NumBins = accumulate.NumBins
	return m
}

// CobraOpt tweaks a COBRA run.
type CobraOpt struct {
	Coalesce         bool    // COBRA-COMM
	CtxSwitchQuantum float64 // Figure 13c
	EvictBufL1L2     int     // Figure 13a (0 = default 32)
	ReserveL1        int     // Figure 13b (0 = default)
	ReserveL2        int
	ReserveLLC       int
	MaxLLCBufs       int  // cap LLC C-Buffers (PINV medium-bin variant)
	SkipAccum        bool // stop after Binning (Figure 13 sweeps need only that phase)
	NoPartition      bool // §V-E: no static cache partitioning; C-Buffers compete in cache
}

// regroupBins merges adjacent fine bins into at most maxBins coarse
// bins (the "medium number of LLC C-Buffers" variant for PINV, §VII-A).
func regroupBins(bins [][]core.Tuple, maxBins int) [][]core.Tuple {
	group := (len(bins) + maxBins - 1) / maxBins
	total := 0
	for _, b := range bins {
		total += len(b)
	}
	// One flat backing array for all merged bins (instead of per-bin
	// append-grown slices); each coarse bin is a capacity-clipped window
	// so later appends by callers could never bleed across bins.
	flat := make([]core.Tuple, 0, total)
	out := make([][]core.Tuple, 0, maxBins)
	for lo := 0; lo < len(bins); lo += group {
		hi := lo + group
		if hi > len(bins) {
			hi = len(bins)
		}
		start := len(flat)
		for _, b := range bins[lo:hi] {
			flat = append(flat, b...)
		}
		out = append(out, flat[start:len(flat):len(flat)])
	}
	return out
}
