package sim

// Multi-core sharded simulation (DESIGN §9).
//
// An Arch with NumCores > 1 runs every scheme on a gang of per-core
// Machs — each with its own L1/L2, OpBuf pipeline, and private NUCA
// LLC slice, exactly the paper's Table II machine — and merges the
// per-core Metrics with MergeMetrics. The sharding follows the paper's
// parallel PB/COBRA execution model:
//
//   - Init and Binning shard the *input stream* by position: core c
//     streams its contiguous chunk of updates into core-private bins
//     spanning the full key range (the paper duplicates all bins and
//     C-Buffers per thread).
//   - Baseline and Accumulate shard the *key range* by ownership
//     (owner-computes): core c applies every update whose key (or bin)
//     it owns, reading tuples from all source cores' bins in source
//     order. Because chunk order equals input order, each key sees its
//     updates in exactly the single-core sequence, so the shared
//     functional arrays are bitwise identical to a single-core run —
//     and writes from different cores land on disjoint slice elements,
//     so the fan-out is race-free.
//
// Determinism contract: per-core simulations are fully independent
// within a phase (no shared machine state), phases are separated by
// barriers (one runShards call each, giving cross-core bin handoff a
// happens-before edge), and per-core results are folded in core-index
// order — the same discipline as exp.RunCells. The goroutine schedule
// can therefore never change a single byte of the output.

import (
	"fmt"
	"runtime/debug"
	"sync"

	"cobra/internal/core"
	"cobra/internal/phi"
)

// shardRange returns the half-open item range [lo, hi) that core c of
// n owns in an n-way shard of total items: lo = ceil(c·total/n).
// Consistent with shardOwner: shardOwner(k) == c iff lo <= k < hi.
func shardRange(c, n, total int) (lo, hi int) {
	return (c*total + n - 1) / n, ((c+1)*total + n - 1) / n
}

// shardOwner returns the core owning item k under shardRange's split.
func shardOwner(k, n, total int) int {
	return k * n / total
}

// gang is one multi-core run: n per-core machines in allocation
// lockstep plus per-core views of one shared functional applier.
type gang struct {
	n     int
	machs []*Mach
	apps  []Applier // apps[0] is the primary (NewApplier) instance
}

// newGang checks out the per-core machines and builds the applier
// views. The applier allocates its regions on core 0; the other
// machines' allocators are then synced so every later gang allocation
// lands at the same base on every core (each core addresses an
// identical layout through its own private hierarchy). The caller
// releases the machines with g.release once the run is over.
func newGang(app *App, arch Arch) (*gang, error) {
	n := arch.Cores()
	g := &gang{n: n, machs: make([]*Mach, n), apps: make([]Applier, n)}
	for c := range g.machs {
		g.machs[c] = NewMach(arch)
	}
	primary := app.NewApplier(g.machs[0])
	sh, ok := primary.(ShardApplier)
	if !ok {
		g.release()
		return nil, fmt.Errorf("sim: app %s applier (%T) does not support multi-core sharding", app.Name, primary)
	}
	g.apps[0] = primary
	for c := 1; c < n; c++ {
		g.machs[c].next = g.machs[0].next
		g.apps[c] = sh.Shard(g.machs[c])
	}
	return g, nil
}

// release returns every core's machine to the pool.
func (g *gang) release() {
	for _, m := range g.machs {
		m.Release()
	}
}

// alloc reserves the same region on every core's machine (lockstep).
func (g *gang) alloc(bytes uint64) Region {
	r := g.machs[0].Alloc(bytes)
	for _, m := range g.machs[1:] {
		m.Alloc(bytes)
	}
	return r
}

// forEachChunk replays core c's contiguous chunk of the update stream,
// passing the global stream position alongside each update.
func (g *gang) forEachChunk(app *App, c int, fn func(i int, key uint32, val uint64, newGroup bool)) {
	lo, hi := shardRange(c, g.n, app.NumUpdates)
	i := 0
	app.ForEach(func(key uint32, val uint64, newGroup bool) {
		if i >= lo && i < hi {
			fn(i, key, val, newGroup)
		}
		i++
	})
}

// runShards runs f(c) for every core on its own goroutine and joins
// deterministically: every shard finishes (or panics, captured as a
// per-core error) before runShards returns, and the lowest core index
// with an error wins — the exp.RunCells discipline. Each call is one
// phase barrier.
func runShards(n int, f func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[c] = fmt.Errorf("sim: core %d panicked: %v\n%s", c, r, debug.Stack())
				}
			}()
			errs[c] = f(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// srcPrefixes computes, for each source core's bins, the cumulative
// tuple position of each bin's first tuple inside that source's bin
// region (prefix[s][b], with prefix[s][len] = the source's total).
func srcPrefixes(perSrc [][][]core.Tuple) [][]int {
	prefix := make([][]int, len(perSrc))
	for s, bins := range perSrc {
		p := make([]int, len(bins)+1)
		for b, seg := range bins {
			p[b+1] = p[b] + len(seg)
		}
		prefix[s] = p
	}
	return prefix
}

// runAccumulateMC replays the owned bin range [binLo, binHi) on one
// core: for each owned bin, every source core's segment is read
// sequentially from that source's bin region (the per-thread bin
// arrays of parallel PB) and applied in source order — which is input
// order, preserving per-key update sequence exactly.
func runAccumulateMC(mach *Mach, app *App, applier Applier, perSrc [][][]core.Tuple, srcRegions []Region, prefix [][]int, binLo, binHi int) {
	tb := uint64(app.TupleBytes)
	for b := binLo; b < binHi; b++ {
		for s := range perSrc {
			seg := perSrc[s][b]
			pos := prefix[s][b]
			// Per-(bin, source) prologue: offsets lookup + loop setup,
			// mirroring the single-core per-bin prologue.
			mach.B.ALU(6)
			mach.B.Load(srcRegions[s].Addr(uint64(pos) * tb))
			mach.B.Branch(pcBinLoop, len(seg) != 0)
			for _, t := range seg {
				mach.B.Load(srcRegions[s].Addr(uint64(pos) * tb))
				mach.B.Branch(pcBinLoop, true)
				mach.B.ALU(1 + app.ApplyALU)
				applier.Apply(t.Key, t.Val)
				pos++
			}
		}
	}
	mach.B.Flush()
	mach.CPU.DrainMem()
}

// runBaselineMC is the sharded Baseline: owner-computes over the key
// range. Core c applies only the updates whose key it owns, streaming
// them from a dense core-local input queue (the pre-partitioned update
// queues of a parallel baseline).
func runBaselineMC(app *App, arch Arch) (Metrics, error) {
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	defer g.release()
	ro := beginRunObs(SchemeBaseline, app)
	defer ro.end()
	ro.cores(g.n)
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	mets := make([]Metrics, g.n)
	err = runShards(g.n, func(c int) error {
		mach, applier := g.machs[c], g.apps[c]
		t := ro.corePhase(c, "accumulate.wall")
		defer t.Stop()
		j := 0
		app.ForEach(func(key uint32, val uint64, newGroup bool) {
			if shardOwner(int(key), g.n, app.NumKeys) != c {
				return
			}
			mach.B.Load(input.Addr(uint64(j) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			mach.B.ALU(1 + app.ApplyALU)
			applier.Apply(key, val)
			j++
		})
		mach.B.Flush()
		mach.CPU.DrainMem()
		met := Metrics{App: app.Name, Input: app.InputName, Scheme: SchemeBaseline}
		met.finish(mach)
		met.AccumCycles = met.Cycles
		met.AccumMem = memSnap(mach)
		mets[c] = met
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}

// planPBMC is planPB for a gang: the per-core private PB structures
// (C-Buffers, counters, cursors) share one layout, and each source
// core gets its own bin region sized to its stream chunk — tuples from
// different sources never alias a cache line.
func planPBMC(g *gang, app *App, numBins int) (pbLayout, []Region) {
	if numBins < 1 {
		numBins = 1
	}
	if numBins > app.NumKeys {
		numBins = app.NumKeys
	}
	shift := uint(0)
	for (uint64(app.NumKeys)+(1<<shift)-1)>>shift > uint64(numBins) {
		shift++
	}
	bins := int((uint64(app.NumKeys) + (1 << shift) - 1) >> shift)
	lay := pbLayout{
		numBins:  bins,
		shift:    shift,
		cbuf:     g.alloc(uint64(bins) * 64),
		cnt:      g.alloc(uint64(bins) * 4),
		binPos:   g.alloc(uint64(bins) * 4),
		tuplesPL: 64 / app.TupleBytes,
	}
	src := make([]Region, g.n)
	for s := range src {
		lo, hi := shardRange(s, g.n, app.NumUpdates)
		src[s] = g.alloc(uint64(hi-lo) * uint64(app.TupleBytes))
	}
	return lay, src
}

// runPBSWMC is the sharded PB-SW: Init and Binning stream per-core
// chunks into core-private bins; Accumulate owner-computes over the
// bin range, replaying every source's segment per owned bin.
func runPBSWMC(app *App, numBins int, arch Arch) (Metrics, error) {
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	defer g.release()
	ro := beginRunObs(SchemePBSW, app)
	defer ro.end()
	ro.cores(g.n)
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	lay, srcRegions := planPBMC(g, app, numBins)
	mets := make([]Metrics, g.n)
	for c := range mets {
		mets[c] = Metrics{App: app.Name, Input: app.InputName, Scheme: SchemePBSW, NumBins: lay.numBins}
	}

	// ---- Init: per-core chunk counts + private prefix sum ----
	err = runShards(g.n, func(c int) error {
		mach := g.machs[c]
		t := ro.corePhase(c, "init.wall")
		defer t.Stop()
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			mach.B.ALU(2)
			addr := lay.cnt.Addr(uint64(key>>lay.shift) * 4)
			mach.B.Load(addr)
			mach.B.Store(addr)
		})
		for b := 0; b < lay.numBins; b++ {
			mach.B.Load(lay.cnt.Addr(uint64(b) * 4))
			mach.B.ALU(2)
			mach.B.Store(lay.cnt.Addr(uint64(b) * 4))
		}
		mach.B.Flush()
		mach.CPU.DrainMem()
		mets[c].InitCycles = mach.CPU.Cycles()
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	// ---- Binning: per-core chunks into private bins ----
	perSrc := make([][][]core.Tuple, g.n)
	scratches := make([]*binScratch, g.n)
	defer func() {
		for _, s := range scratches {
			if s != nil {
				putBinScratch(s)
			}
		}
	}()
	err = runShards(g.n, func(c int) error {
		mach := g.machs[c]
		t := ro.corePhase(c, "binning.wall")
		defer t.Stop()
		binStartCyc := mach.CPU.Cycles()
		binStartCtr := mach.CPU.Ctr
		binStartMem := memSnap(mach)
		scratch := getBinScratch(lay.numBins)
		scratches[c] = scratch
		bins, fill, binPos := scratch.bins, scratch.fill, scratch.binPos
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			b := int(key >> lay.shift)
			mach.B.ALU(2)
			cntAddr := lay.cnt.Addr(uint64(b) * 4)
			mach.B.Load(cntAddr)
			mach.B.Store(lay.cbuf.Addr(uint64(b)*64 + uint64(fill[b])*uint64(app.TupleBytes)))
			mach.B.ALU(1)
			mach.B.Store(cntAddr)
			fill[b]++
			full := fill[b] == lay.tuplesPL
			mach.B.Branch(pcCBufFull, !full)
			if full {
				posAddr := lay.binPos.Addr(uint64(b) * 4)
				mach.B.Load(posAddr)
				for k := 0; k < lay.tuplesPL; k++ {
					off := uint64(binPos[b]+k) * uint64(app.TupleBytes)
					mach.B.StoreNT(srcRegions[c].Addr(off))
					mach.B.ALU(1)
				}
				binPos[b] += lay.tuplesPL
				mach.B.ALU(1)
				mach.B.Store(posAddr)
				fill[b] = 0
			}
			bins[b] = append(bins[b], core.Tuple{Key: key, Val: val})
		})
		for b := 0; b < lay.numBins; b++ {
			mach.B.Load(lay.cnt.Addr(uint64(b) * 4))
			mach.B.Branch(pcCBufFull, fill[b] == 0)
			for k := 0; k < fill[b]; k++ {
				off := uint64(binPos[b]+k) * uint64(app.TupleBytes)
				mach.B.StoreNT(srcRegions[c].Addr(off))
				mach.B.ALU(1)
			}
			binPos[b] += fill[b]
			fill[b] = 0
		}
		mach.B.Flush()
		mach.CPU.DrainMem()
		mets[c].BinCycles = mach.CPU.Cycles() - binStartCyc
		mets[c].BinCtr = mach.CPU.Ctr.Sub(binStartCtr)
		mets[c].BinMem = memSnap(mach).sub(binStartMem)
		perSrc[c] = bins
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	// ---- Accumulate: owner-computes over the bin range ----
	prefix := srcPrefixes(perSrc)
	err = runShards(g.n, func(c int) error {
		mach, applier := g.machs[c], g.apps[c]
		t := ro.corePhase(c, "accumulate.wall")
		defer t.Stop()
		accStartCyc := mach.CPU.Cycles()
		accStartCtr := mach.CPU.Ctr
		accStartMem := memSnap(mach)
		binLo, binHi := shardRange(c, g.n, lay.numBins)
		runAccumulateMC(mach, app, applier, perSrc, srcRegions, prefix, binLo, binHi)
		mets[c].AccumCycles = mach.CPU.Cycles() - accStartCyc
		mets[c].AccumCtr = mach.CPU.Ctr.Sub(accStartCtr)
		mets[c].AccumMem = memSnap(mach).sub(accStartMem)
		mets[c].finish(g.machs[c])
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}

// runCOBRAMC is the sharded COBRA: each core owns a full hardware
// C-Buffer hierarchy (the paper duplicates C-Buffers per core and
// assigns each core's LLC C-Buffers to its own NUCA banks), bins its
// stream chunk through binupdate instructions, then owner-computes the
// Accumulate over every core's hardware-materialized bins.
func runCOBRAMC(app *App, opt CobraOpt, arch Arch) (Metrics, error) {
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
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	defer g.release()
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	machines := make([]*core.Machine, g.n)
	for c := range machines {
		machines[c] = core.NewMachine(&g.machs[c].cbufs, g.machs[c].CPU, cfg)
		if err := machines[c].BinInit(uint64(app.NumKeys)); err != nil {
			return Metrics{}, err
		}
	}
	scheme := SchemeCOBRA
	if opt.Coalesce {
		scheme = SchemeComm
	}
	ro := beginRunObs(scheme, app)
	defer ro.end()
	ro.cores(g.n)
	numBins := machines[0].NumBins()
	shiftLLC := machines[0].BinShiftLLC()
	cntRegion := g.alloc(uint64(numBins) * 4)
	mets := make([]Metrics, g.n)
	for c := range mets {
		mets[c] = Metrics{App: app.Name, Input: app.InputName, Scheme: scheme, NumBins: numBins}
	}

	// ---- Init: per-core chunk counts (charged to COBRA too) ----
	err = runShards(g.n, func(c int) error {
		mach := g.machs[c]
		t := ro.corePhase(c, "init.wall")
		defer t.Stop()
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			mach.B.ALU(2)
			addr := cntRegion.Addr(uint64(key>>shiftLLC) * 4)
			mach.B.Load(addr)
			mach.B.Store(addr)
		})
		for b := 0; b < numBins; b++ {
			mach.B.Load(cntRegion.Addr(uint64(b) * 4))
			mach.B.ALU(2)
			mach.B.Store(cntRegion.Addr(uint64(b) * 4))
		}
		mach.B.Flush()
		mach.CPU.DrainMem()
		mets[c].InitCycles = mach.CPU.Cycles()
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	// ---- Binning: one binupdate per tuple, per-core C-Buffers ----
	// Scalar CPU path per core (the eviction-FIFO model reads the live
	// per-core clock; DESIGN §7) — cores stay independent because each
	// Machine is bound to its own cpu.Core.
	err = runShards(g.n, func(c int) error {
		mach, m := g.machs[c], machines[c]
		t := ro.corePhase(c, "binning.wall")
		defer t.Stop()
		binStartCyc := mach.CPU.Cycles()
		binStartCtr := mach.CPU.Ctr
		binStartMem := memSnap(mach)
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.CPU.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.CPU.Branch(pcInnerLoop, !newGroup)
			m.BinUpdate(key, val)
		})
		m.BinFlush()
		met := &mets[c]
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
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	if opt.SkipAccum {
		for c := range mets {
			mets[c].finish(g.machs[c])
		}
		return MergeMetrics(mets), nil
	}

	// ---- Accumulate: owner-computes over every core's hardware bins ----
	perSrc := make([][][]core.Tuple, g.n)
	for s := range perSrc {
		hwBins := machines[s].Bins
		if opt.MaxLLCBufs > 0 && opt.MaxLLCBufs < len(hwBins) {
			hwBins = regroupBins(hwBins, opt.MaxLLCBufs)
		}
		perSrc[s] = hwBins
	}
	accBins := len(perSrc[0])
	prefix := srcPrefixes(perSrc)
	srcRegions := make([]Region, g.n)
	for s := range srcRegions {
		srcRegions[s] = g.alloc(uint64(prefix[s][accBins]) * uint64(app.TupleBytes))
	}
	err = runShards(g.n, func(c int) error {
		mach, applier := g.machs[c], g.apps[c]
		t := ro.corePhase(c, "accumulate.wall")
		defer t.Stop()
		accStartCyc := mach.CPU.Cycles()
		accStartCtr := mach.CPU.Ctr
		accStartMem := memSnap(mach)
		binLo, binHi := shardRange(c, g.n, accBins)
		runAccumulateMC(mach, app, applier, perSrc, srcRegions, prefix, binLo, binHi)
		met := &mets[c]
		met.AccumCycles = mach.CPU.Cycles() - accStartCyc
		met.AccumCtr = mach.CPU.Ctr.Sub(accStartCtr)
		met.AccumMem = memSnap(mach).sub(accStartMem)
		met.finish(mach)
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}

// runPHIMC is the sharded PHI: one idealized coalescing unit per core
// over its stream chunk (partial residues per core — cross-core
// updates to one key coalesce only at Accumulate, which is exact for
// the integer monoids PHI admits), then owner-computes Accumulate over
// every core's residue bins.
func runPHIMC(app *App, numBins int, arch Arch) (Metrics, error) {
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	defer g.release()
	ro := beginRunObs(SchemePHI, app)
	defer ro.end()
	ro.cores(g.n)
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	phiCfg := phi.DefaultConfig(app.TupleBytes, numBins)
	phiCfg.Reduce = app.Reduce
	models := make([]*phi.Model, g.n)
	for c := range models {
		models[c] = phi.New(phiCfg, uint64(app.NumKeys))
	}
	mets := make([]Metrics, g.n)
	for c := range mets {
		mets[c] = Metrics{App: app.Name, Input: app.InputName, Scheme: SchemePHI, NumBins: models[0].NumBins()}
	}

	// ---- Binning: per-core idealized coalescing over the chunk ----
	err = runShards(g.n, func(c int) error {
		mach, model := g.machs[c], models[c]
		t := ro.corePhase(c, "binning.wall")
		defer t.Stop()
		binStart := mach.CPU.Cycles()
		binStartMem := memSnap(mach)
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			mach.B.BinUpdate()
			model.Update(key, val)
		})
		mach.B.Flush()
		model.Flush()
		mach.H.WriteLineDirect((model.St.MemBytes + 63) / 64)
		mach.CPU.DrainMem()
		mets[c].BinCycles = mach.CPU.Cycles() - binStart
		mets[c].BinMem = memSnap(mach).sub(binStartMem)
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	// ---- Accumulate: owner-computes over every core's residues ----
	perSrc := make([][][]core.Tuple, g.n)
	for s := range perSrc {
		perSrc[s] = models[s].Bins
	}
	accBins := len(perSrc[0])
	prefix := srcPrefixes(perSrc)
	srcRegions := make([]Region, g.n)
	for s := range srcRegions {
		srcRegions[s] = g.alloc(uint64(prefix[s][accBins]) * uint64(app.TupleBytes))
	}
	err = runShards(g.n, func(c int) error {
		mach, applier := g.machs[c], g.apps[c]
		t := ro.corePhase(c, "accumulate.wall")
		defer t.Stop()
		accStart := mach.CPU.Cycles()
		accStartCtr := mach.CPU.Ctr
		accStartMem := memSnap(mach)
		binLo, binHi := shardRange(c, g.n, accBins)
		runAccumulateMC(mach, app, applier, perSrc, srcRegions, prefix, binLo, binHi)
		mets[c].AccumCycles = mach.CPU.Cycles() - accStart
		mets[c].AccumCtr = mach.CPU.Ctr.Sub(accStartCtr)
		mets[c].AccumMem = memSnap(mach).sub(accStartMem)
		mets[c].finish(mach)
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}
