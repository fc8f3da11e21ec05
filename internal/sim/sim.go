// Package sim assembles the simulated machine (core + hierarchy +
// COBRA extensions) and runs workloads through the execution schemes
// the paper evaluates: Baseline, PB-SW, PB-SW-IDEAL, COBRA, COBRA-COMM,
// and PHI. It produces the Metrics every figure is built from.
//
// The simulated unit is one representative core owning 1/16th of the
// work and a core-local NUCA LLC slice (see DESIGN.md): the paper's PB
// and COBRA duplicate all bins and C-Buffers per thread and privatize
// LLC banks per core, so per-core behaviour is the unit of analysis.
package sim

import (
	"fmt"
	"sync"

	"cobra/internal/core"
	"cobra/internal/cpu"
	"cobra/internal/mem"
	"cobra/internal/phi"
)

// Arch is the simulated architecture (Table II defaults).
type Arch struct {
	Mem mem.Config
	CPU cpu.Config

	// NumCores is the number of simulated cores. 0 and 1 both select
	// the legacy single-core model (one representative core owning all
	// the work), whose outputs are byte-identical to the pre-multi-core
	// simulator. Values > 1 shard every scheme across NumCores per-core
	// machines — each with its own L1/L2, OpBuf pipeline, and private
	// NUCA LLC slice — and merge per-core Metrics via MergeMetrics.
	// See DESIGN.md §9 for the shard/merge model.
	NumCores int

	// scalarRefs forces runs built from this Arch through the scalar
	// per-reference oracle path instead of the batched pipeline. Both
	// paths must produce bit-identical Metrics; the differential tests
	// exercise this knob.
	scalarRefs bool
}

// DefaultMultiCores is the paper's evaluated machine width (Table II:
// a 16-core OoO CMP), used when a caller asks for "multi-core" without
// naming a count.
const DefaultMultiCores = 16

// DefaultArch mirrors Table II's per-core parameters on the legacy
// single-core model.
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

// WithScalarRefs returns a copy of a whose machines execute every
// micro-op immediately through the scalar Core methods (the oracle the
// batched pipeline is verified against).
func (a Arch) WithScalarRefs() Arch {
	a.scalarRefs = true
	return a
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
// Hot loops emit micro-ops through B, the batched op pipeline; direct
// CPU/H access remains for code that needs the clock or hierarchy
// state mid-stream (the COBRA binning loop, phase bookkeeping) — any
// such access must be preceded by B.Flush().
//
// Lifecycle: NewMach checks a machine out, the run drives it, and
// Release returns it to a pool, from which a later NewMach with an
// equal Arch takes it back after a full reset. Every runner releases
// the machines it checked out, once, after its last use of them.
type Mach struct {
	CPU *cpu.Core
	H   *mem.Hierarchy
	B   *cpu.OpBuf

	next uint64

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
	if a.scalarRefs {
		b = cpu.NewOpBufDirect(c)
	}
	return &Mach{CPU: c, H: h, B: b, next: 1 << 20}
}

// fits reports whether m was built for a machine equal to a's. The core
// count is not part of a machine: every core of a gang is the same.
func (m *Mach) fits(a Arch) bool {
	return m.H.Config() == a.Mem && m.CPU.Config() == a.CPU && m.B.Direct() == a.scalarRefs
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

// Scheme names an execution scheme.
type Scheme string

// Execution schemes (Figure 10's bars plus the §VII-C specializations).
const (
	SchemeBaseline Scheme = "Baseline"
	SchemePBSW     Scheme = "PB-SW"
	SchemePBIdeal  Scheme = "PB-SW-IDEAL"
	SchemeCOBRA    Scheme = "COBRA"
	SchemeComm     Scheme = "COBRA-COMM"
	SchemePHI      Scheme = "PHI"
)

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
	// (1 for the single-core model and for each per-core shard).
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

// RunBaseline executes the unoptimized kernel: stream the input, apply
// each irregular update directly (Figure 3 left).
func RunBaseline(app *App, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	if arch.Cores() > 1 {
		return runBaselineMC(app, arch)
	}
	ro := beginRunObs(SchemeBaseline, app)
	defer ro.end()
	applyT := ro.phase("accumulate.wall")
	defer applyT.Stop()
	mach := NewMach(arch)
	defer mach.Release()
	applier := app.NewApplier(mach)
	input := mach.Alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	met := Metrics{App: app.Name, Input: app.InputName, Scheme: SchemeBaseline}
	i := 0
	app.ForEach(func(key uint32, val uint64, newGroup bool) {
		mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
		mach.B.Branch(pcInnerLoop, !newGroup)
		mach.B.ALU(1 + app.ApplyALU) // address math + apply work
		applier.Apply(key, val)
		i++
	})
	mach.B.Flush()
	mach.CPU.DrainMem()
	met.finish(mach)
	met.AccumCycles = met.Cycles // the whole run is "apply"
	met.AccumMem = memSnap(mach)
	return met, nil
}

// pbLayout bundles the software-PB data structures of one run.
type pbLayout struct {
	numBins  int
	shift    uint
	cbuf     Region // numBins × 64 B coalescing buffers
	cnt      Region // numBins × 4 B per-C-Buffer fill counters
	binPos   Region // numBins × 4 B bin write cursors
	bins     Region // NumUpdates × TupleBytes in-memory bins
	tuplesPL int
}

func planPB(mach *Mach, app *App, numBins int) pbLayout {
	if numBins < 1 {
		numBins = 1
	}
	if numBins > app.NumKeys {
		numBins = app.NumKeys
	}
	// Power-of-two bin range, as in Algorithm 2's shift-based binning.
	shift := uint(0)
	for (uint64(app.NumKeys)+(1<<shift)-1)>>shift > uint64(numBins) {
		shift++
	}
	bins := int((uint64(app.NumKeys) + (1 << shift) - 1) >> shift)
	return pbLayout{
		numBins:  bins,
		shift:    shift,
		cbuf:     mach.Alloc(uint64(bins) * 64),
		cnt:      mach.Alloc(uint64(bins) * 4),
		binPos:   mach.Alloc(uint64(bins) * 4),
		bins:     mach.Alloc(uint64(app.NumUpdates) * uint64(app.TupleBytes)),
		tuplesPL: 64 / app.TupleBytes,
	}
}

// runInitCount models the Init phase both PB and COBRA pay (Table I):
// one streaming pass over the input counting tuples per bin, then a
// prefix sum over the bin counts.
func runInitCount(mach *Mach, app *App, input Region, cntRegion Region, shift uint, numBins int) {
	i := 0
	app.ForEach(func(key uint32, val uint64, newGroup bool) {
		mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
		mach.B.Branch(pcInnerLoop, !newGroup)
		mach.B.ALU(2) // shift + address math
		addr := cntRegion.Addr(uint64(key>>shift) * 4)
		mach.B.Load(addr)
		mach.B.Store(addr)
		i++
	})
	// Prefix sum over bin counts.
	for b := 0; b < numBins; b++ {
		mach.B.Load(cntRegion.Addr(uint64(b) * 4))
		mach.B.ALU(2)
		mach.B.Store(cntRegion.Addr(uint64(b) * 4))
	}
	mach.B.Flush()
	mach.CPU.DrainMem()
}

// RunPBSW executes software propagation blocking with the given bin
// count (Algorithm 2): Init (exact bin sizing), Binning through
// cacheline-sized software C-Buffers flushed with non-temporal stores,
// then Accumulate over the materialized bins.
func RunPBSW(app *App, numBins int, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	if arch.Cores() > 1 {
		return runPBSWMC(app, numBins, arch)
	}
	ro := beginRunObs(SchemePBSW, app)
	defer ro.end()
	mach := NewMach(arch)
	defer mach.Release()
	applier := app.NewApplier(mach)
	input := mach.Alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	lay := planPB(mach, app, numBins)
	met := Metrics{App: app.Name, Input: app.InputName, Scheme: SchemePBSW, NumBins: lay.numBins}

	// ---- Init: per-bin tuple counts + prefix sum ----
	initT := ro.phase("init.wall")
	runInitCount(mach, app, input, lay.cnt, lay.shift, lay.numBins)
	initT.Stop()
	met.InitCycles = mach.CPU.Cycles()

	// ---- Binning ----
	binT := ro.phase("binning.wall")
	binStartCyc := mach.CPU.Cycles()
	binStartCtr := mach.CPU.Ctr
	binStartMem := memSnap(mach)
	scratch := getBinScratch(lay.numBins)
	defer putBinScratch(scratch)
	bins := scratch.bins     // materialized software bins
	fill := scratch.fill     // tuples in each software C-Buffer
	binPos := scratch.binPos // write cursor into each memory bin
	i := 0
	app.ForEach(func(key uint32, val uint64, newGroup bool) {
		mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
		mach.B.Branch(pcInnerLoop, !newGroup)
		i++
		b := int(key >> lay.shift)
		mach.B.ALU(2) // shift + C-Buffer address math
		// Read-modify-write the C-Buffer fill counter, store the tuple.
		cntAddr := lay.cnt.Addr(uint64(b) * 4)
		mach.B.Load(cntAddr)
		mach.B.Store(lay.cbuf.Addr(uint64(b)*64 + uint64(fill[b])*uint64(app.TupleBytes)))
		mach.B.ALU(1)
		mach.B.Store(cntAddr)
		fill[b]++
		full := fill[b] == lay.tuplesPL
		mach.B.Branch(pcCBufFull, !full)
		if full {
			// Bulk transfer: non-temporal stores of the C-Buffer's tuples
			// into the in-memory bin at this bin's cursor.
			posAddr := lay.binPos.Addr(uint64(b) * 4)
			mach.B.Load(posAddr)
			for k := 0; k < lay.tuplesPL; k++ {
				off := uint64(binPos[b]+k) * uint64(app.TupleBytes)
				mach.B.StoreNT(lay.bins.Addr(off))
				mach.B.ALU(1)
			}
			binPos[b] += lay.tuplesPL
			mach.B.ALU(1)
			mach.B.Store(posAddr)
			fill[b] = 0
		}
		bins[b] = append(bins[b], core.Tuple{Key: key, Val: val})
	})
	// Flush partial C-Buffers (software epilogue).
	for b := 0; b < lay.numBins; b++ {
		mach.B.Load(lay.cnt.Addr(uint64(b) * 4))
		mach.B.Branch(pcCBufFull, fill[b] == 0)
		for k := 0; k < fill[b]; k++ {
			off := uint64(binPos[b]+k) * uint64(app.TupleBytes)
			mach.B.StoreNT(lay.bins.Addr(off))
			mach.B.ALU(1)
		}
		binPos[b] += fill[b]
		fill[b] = 0
	}
	mach.B.Flush()
	mach.CPU.DrainMem()
	binT.Stop()
	met.BinCycles = mach.CPU.Cycles() - binStartCyc
	met.BinCtr = mach.CPU.Ctr.Sub(binStartCtr)
	met.BinMem = memSnap(mach).sub(binStartMem)

	// ---- Accumulate ----
	accT := ro.phase("accumulate.wall")
	accStartCyc := mach.CPU.Cycles()
	accStartCtr := mach.CPU.Ctr
	accStartMem := memSnap(mach)
	runAccumulate(mach, app, applier, bins, lay.bins)
	accT.Stop()
	met.AccumCycles = mach.CPU.Cycles() - accStartCyc
	met.AccumCtr = mach.CPU.Ctr.Sub(accStartCtr)
	met.AccumMem = memSnap(mach).sub(accStartMem)

	met.finish(mach)
	return met, nil
}

// runAccumulate replays materialized bins: sequential (prefetchable)
// tuple reads, then the irregular apply whose footprint is now bounded
// by the bin range.
func runAccumulate(mach *Mach, app *App, applier Applier, bins [][]core.Tuple, binRegion Region) {
	pos := 0
	for b := range bins {
		// Per-bin loop prologue: offsets lookup + loop setup.
		mach.B.ALU(6)
		mach.B.Load(binRegion.Addr(uint64(pos) * uint64(app.TupleBytes)))
		mach.B.Branch(pcBinLoop, len(bins[b]) != 0)
		for _, t := range bins[b] {
			mach.B.Load(binRegion.Addr(uint64(pos) * uint64(app.TupleBytes)))
			mach.B.Branch(pcBinLoop, true)
			mach.B.ALU(1 + app.ApplyALU)
			applier.Apply(t.Key, t.Val)
			pos++
		}
	}
	mach.B.Flush()
	mach.CPU.DrainMem()
}

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

// RunCOBRA executes the COBRA scheme: the Init counting pass (bin sizes
// are precomputed exactly as in PB, §V-E), bininit, a Binning phase of
// single binupdate instructions through the hardware C-Buffer
// hierarchy, binflush, then Accumulate over the hardware-materialized
// bins (one per LLC C-Buffer — the optimal large bin count).
func RunCOBRA(app *App, opt CobraOpt, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	if arch.Cores() > 1 {
		return runCOBRAMC(app, opt, arch)
	}
	mach := NewMach(arch)
	defer mach.Release()
	applier := app.NewApplier(mach)
	input := mach.Alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))

	cfg := core.DefaultConfig(app.TupleBytes)
	cfg.Coalesce = opt.Coalesce
	cfg.CtxSwitchQuantum = opt.CtxSwitchQuantum
	if opt.EvictBufL1L2 > 0 {
		cfg.EvictBufL1L2 = opt.EvictBufL1L2
	}
	if opt.ReserveL1 > 0 {
		cfg.ReserveL1 = opt.ReserveL1
	}
	if opt.ReserveL2 > 0 {
		cfg.ReserveL2 = opt.ReserveL2
	}
	if opt.ReserveLLC > 0 {
		cfg.ReserveLLC = opt.ReserveLLC
	}
	cfg.NoPartition = opt.NoPartition
	if opt.Coalesce {
		if !app.Commutative || app.Reduce == nil {
			return Metrics{}, fmt.Errorf("sim: COBRA-COMM is inapplicable to %s (§III-B: updates must coalesce losslessly)", app.Name)
		}
		cfg.CoalesceFn = app.Reduce
	}
	m := core.NewMachine(&mach.cbufs, mach.CPU, cfg)

	scheme := SchemeCOBRA
	if opt.Coalesce {
		scheme = SchemeComm
	}
	met := Metrics{App: app.Name, Input: app.InputName, Scheme: scheme}
	ro := beginRunObs(scheme, app)
	defer ro.end()

	// ---- Init: bin-size counting pass (charged to COBRA too) ----
	// The count array is one slot per *memory bin*; before bininit the
	// bin count is the LLC C-Buffer count, which we compute by a dry
	// BinInit on a scratch machine... instead BinInit first (cheap), then
	// count. Order matches §V-E: offsets must exist before Binning.
	if err := m.BinInit(uint64(app.NumKeys)); err != nil {
		return Metrics{}, err
	}
	cntRegion := mach.Alloc(uint64(m.NumBins()) * 4)
	initT := ro.phase("init.wall")
	runInitCount(mach, app, input, cntRegion, m.BinShiftLLC(), m.NumBins())
	initT.Stop()
	met.InitCycles = mach.CPU.Cycles()
	met.NumBins = m.NumBins()

	// ---- Binning: one binupdate per tuple ----
	// This loop stays on the scalar CPU methods deliberately: the COBRA
	// eviction-FIFO model inside m.BinUpdate reads the live cycle clock
	// (queueing delays, context-switch quanta), so its micro-ops cannot
	// be deferred behind a batch. See DESIGN §7.
	binT := ro.phase("binning.wall")
	binStartCyc := mach.CPU.Cycles()
	binStartCtr := mach.CPU.Ctr
	binStartMem := memSnap(mach)
	i := 0
	app.ForEach(func(key uint32, val uint64, newGroup bool) {
		mach.CPU.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
		mach.CPU.Branch(pcInnerLoop, !newGroup)
		m.BinUpdate(key, val)
		i++
	})
	m.BinFlush()
	binT.Stop()
	met.BinCycles = mach.CPU.Cycles() - binStartCyc
	met.BinCtr = mach.CPU.Ctr.Sub(binStartCtr)
	met.BinMem = memSnap(mach).sub(binStartMem)
	met.EvictStalls, _ = m.EvictionStalls()
	if met.BinCycles > 0 {
		met.EvictStallFrac = met.EvictStalls / met.BinCycles
	}
	met.CtxWasteBytes = m.St.CtxWasteBytes
	met.CtxSwitches = m.St.CtxSwitches
	met.CBufMissRate = m.St.CBufMissRate()

	if opt.SkipAccum {
		met.finish(mach)
		return met, nil
	}

	// ---- Accumulate over hardware bins ----
	binRegion := mach.Alloc(uint64(app.NumUpdates) * uint64(app.TupleBytes))
	accT := ro.phase("accumulate.wall")
	accStartCyc := mach.CPU.Cycles()
	accStartCtr := mach.CPU.Ctr
	accStartMem := memSnap(mach)
	hwBins := m.Bins
	if opt.MaxLLCBufs > 0 && opt.MaxLLCBufs < len(hwBins) {
		hwBins = regroupBins(hwBins, opt.MaxLLCBufs)
	}
	runAccumulate(mach, app, applier, hwBins, binRegion)
	accT.Stop()
	met.AccumCycles = mach.CPU.Cycles() - accStartCyc
	met.AccumCtr = mach.CPU.Ctr.Sub(accStartCtr)
	met.AccumMem = memSnap(mach).sub(accStartMem)

	met.finish(mach)
	return met, nil
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

// RunPHI models PHI for a commutative app (Figure 14): idealized
// zero-overhead hierarchical coalescing during Binning (traffic =
// stream reads + residue writes), then an Accumulate pass over the
// coalesced residue with PB-SW's (compromised) bin count.
func RunPHI(app *App, numBins int, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	if !app.Commutative || app.Reduce == nil {
		return Metrics{}, fmt.Errorf("sim: PHI is inapplicable to %s (§III-B: updates must coalesce losslessly)", app.Name)
	}
	if arch.Cores() > 1 {
		return runPHIMC(app, numBins, arch)
	}
	ro := beginRunObs(SchemePHI, app)
	defer ro.end()
	mach := NewMach(arch)
	defer mach.Release()
	applier := app.NewApplier(mach)
	input := mach.Alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	met := Metrics{App: app.Name, Input: app.InputName, Scheme: SchemePHI}

	phiCfg := phi.DefaultConfig(app.TupleBytes, numBins)
	phiCfg.Reduce = app.Reduce
	model := phi.New(phiCfg, uint64(app.NumKeys))
	met.NumBins = model.NumBins()

	// Binning: stream the input (real cache traffic); coalescing and
	// residue writes are idealized per the paper's PHI methodology.
	binT := ro.phase("binning.wall")
	binStart := mach.CPU.Cycles()
	binStartMem := memSnap(mach)
	i := 0
	app.ForEach(func(key uint32, val uint64, newGroup bool) {
		mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
		mach.B.Branch(pcInnerLoop, !newGroup)
		mach.B.BinUpdate()     // PHI also uses a single update instruction
		model.Update(key, val) // pure functional model: no machine state read
		i++
	})
	mach.B.Flush()
	model.Flush()
	mach.H.WriteLineDirect((model.St.MemBytes + 63) / 64)
	mach.CPU.DrainMem()
	binT.Stop()
	met.BinCycles = mach.CPU.Cycles() - binStart
	met.BinMem = memSnap(mach).sub(binStartMem)

	// Accumulate over the coalesced residue with PB-SW's bin count.
	binRegion := mach.Alloc(uint64(app.NumUpdates) * uint64(app.TupleBytes))
	accT := ro.phase("accumulate.wall")
	accStart := mach.CPU.Cycles()
	accStartCtr := mach.CPU.Ctr
	accStartMem := memSnap(mach)
	runAccumulate(mach, app, applier, model.Bins, binRegion)
	accT.Stop()
	met.AccumCycles = mach.CPU.Cycles() - accStart
	met.AccumCtr = mach.CPU.Ctr.Sub(accStartCtr)
	met.AccumMem = memSnap(mach).sub(accStartMem)

	met.finish(mach)
	return met, nil
}
