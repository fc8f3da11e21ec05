package sim

// Scheme runners (DESIGN §9).
//
// Every scheme runs on a gang of Arch.Cores() per-core Machs — each
// with its own core, L1/L2, and private NUCA LLC slice, exactly the
// paper's Table II machine — and merges the per-core
// Metrics with MergeMetrics. A one-core run is a gang of one: the same
// runner, with one chunk, one owner and an identity merge. The
// sharding follows the paper's parallel PB/COBRA execution model:
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
// order — the same discipline as exp.MapCells. The goroutine schedule
// can therefore never change a single byte of the output.

import (
	"fmt"
	"runtime/debug"
	"sync"

	"cobra/internal/core"
	"cobra/internal/cpu"
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

// gang is one scheme run: n per-core machines in allocation lockstep,
// the one functional applier every core issues its updates through,
// the run's observation, the simulated input stream, and the per-core
// Metrics the phases fill in.
type gang struct {
	n       int
	machs   []*Mach
	applier Applier
	app     *App
	ro      runObs
	input   Region
	mets    []Metrics
}

// newGang checks out the per-core machines for one run of scheme,
// builds the applier and lays out the input stream. The applier
// allocates its regions on core 0; the other machines' allocators are
// then synced so every later gang allocation lands at the same base on
// every core (each core addresses an identical layout through its own
// private hierarchy). The caller ends the run with g.close.
func newGang(app *App, arch Arch, scheme Scheme) *gang {
	n := arch.Cores()
	g := &gang{n: n, machs: make([]*Mach, n), app: app}
	for c := range g.machs {
		g.machs[c] = NewMach(arch)
	}
	g.applier = app.NewApplier(g.machs[0])
	for c := 1; c < n; c++ {
		g.machs[c].next = g.machs[0].next
	}
	g.ro = beginRunObs(scheme, app, n)
	g.input = g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	g.mets = make([]Metrics, n)
	for c := range g.mets {
		g.mets[c] = Metrics{App: app.Name, Input: app.InputName, Scheme: scheme}
	}
	return g
}

// release returns every core's machine to the pool.
func (g *gang) release() {
	for _, m := range g.machs {
		m.Release()
	}
}

// close ends the run's observation and releases its machines.
func (g *gang) close() {
	g.ro.end()
	g.release()
}

// alloc reserves the same region on every core's machine (lockstep).
func (g *gang) alloc(bytes uint64) Region {
	r := g.machs[0].Alloc(bytes)
	for _, m := range g.machs[1:] {
		m.Alloc(bytes)
	}
	return r
}

// runShards runs f(c) for every core on its own goroutine and joins
// deterministically: every shard finishes (or panics, captured as a
// per-core error) before runShards returns, and the lowest core index
// with an error wins — the exp.MapCells discipline. Each call is one
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

// phase runs f on every core as one barrier-separated phase, timed as
// name ("init.wall", "binning.wall", "accumulate.wall").
func (g *gang) phase(name string, f func(c int, mach *Mach)) error {
	return runShards(g.n, func(c int) error {
		t := g.ro.corePhase(c, name)
		defer t.Stop()
		f(c, g.machs[c])
		return nil
	})
}

// forEachChunk replays core c's contiguous chunk of the update stream,
// passing the global stream position alongside each update.
func (g *gang) forEachChunk(c int, fn func(i int, key uint32, val uint64, newGroup bool)) {
	lo, hi := shardRange(c, g.n, g.app.NumUpdates)
	i := 0
	g.app.ForEach(func(key uint32, val uint64, newGroup bool) {
		if i >= lo && i < hi {
			fn(i, key, val, newGroup)
		}
		i++
	})
}

// merge records the run's bin count, finishes every core's Metrics
// and folds them in core order.
func (g *gang) merge(numBins int) Metrics {
	for c := range g.mets {
		g.mets[c].NumBins = numBins
		g.mets[c].finish(g.machs[c])
	}
	return MergeMetrics(g.mets)
}

// phaseMark is a core's clock, counters and memory activity at the
// start of a phase.
type phaseMark struct {
	cyc float64
	ctr cpu.Counters
	mem PhaseMem
}

func markPhase(mach *Mach) phaseMark {
	return phaseMark{mach.CPU.Cycles(), mach.CPU.Ctr, memSnap(mach)}
}

// since returns the phase's cycles, counters and memory activity so far.
func (p phaseMark) since(mach *Mach) (float64, cpu.Counters, PhaseMem) {
	return mach.CPU.Cycles() - p.cyc, mach.CPU.Ctr.Sub(p.ctr), memSnap(mach).sub(p.mem)
}

// RunBaseline executes the unoptimized kernel: stream the input, apply
// each irregular update directly (Figure 3 left). Cores owner-compute
// over the key range: core c applies only the updates whose key it
// owns, streaming them from a dense core-local input queue (the
// pre-partitioned update queues of a parallel baseline).
func RunBaseline(app *App, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	g := newGang(app, arch, SchemeBaseline)
	defer g.close()
	err := g.phase("accumulate.wall", func(c int, mach *Mach) {
		j := 0
		app.ForEach(func(key uint32, val uint64, newGroup bool) {
			if shardOwner(int(key), g.n, app.NumKeys) != c {
				return
			}
			mach.CPU.Load(g.input.Addr(uint64(j) * uint64(app.StreamBytes)))
			mach.CPU.Branch(pcInnerLoop, !newGroup)
			mach.CPU.ALU(1 + app.ApplyALU) // address math + apply work
			g.applier.Apply(mach, key, val)
			j++
		})
		mach.CPU.DrainMem()
		// The whole run is "apply".
		g.mets[c].AccumCycles = mach.CPU.Cycles()
		g.mets[c].AccumMem = memSnap(mach)
	})
	if err != nil {
		return Metrics{}, err
	}
	return g.merge(0), nil
}

// hostBins checks out every core's bin arena for numBins bins over its
// stream chunk and returns where Init counts each core's tuples per
// bin.
func (g *gang) hostBins(numBins int) [][]int {
	counts := make([][]int, g.n)
	for c, m := range g.machs {
		lo, hi := shardRange(c, g.n, g.app.NumUpdates)
		counts[c] = m.bins.checkout(numBins, hi-lo).off[1:]
	}
	return counts
}

// initCount is the Init phase PB-SW and COBRA both pay (Table I): each
// core streams its chunk counting tuples per bin into its private count
// array cnt, then prefix-sums the counts. When host is non-nil, core c
// also counts its chunk's tuples per bin into host[c] on the host side,
// for a runner that lays out its bins from them.
func (g *gang) initCount(cnt Region, shift uint, numBins int, host [][]int) error {
	return g.phase("init.wall", func(c int, mach *Mach) {
		var hc []int
		if host != nil {
			hc = host[c]
		}
		g.forEachChunk(c, func(i int, key uint32, _ uint64, newGroup bool) {
			mach.CPU.Load(g.input.Addr(uint64(i) * uint64(g.app.StreamBytes)))
			mach.CPU.Branch(pcInnerLoop, !newGroup)
			mach.CPU.ALU(2) // shift + address math
			b := key >> shift
			addr := cnt.Addr(uint64(b) * 4)
			mach.CPU.Load(addr)
			mach.CPU.Store(addr)
			if hc != nil {
				hc[b]++
			}
		})
		for b := 0; b < numBins; b++ {
			mach.CPU.Load(cnt.Addr(uint64(b) * 4))
			mach.CPU.ALU(2)
			mach.CPU.Store(cnt.Addr(uint64(b) * 4))
		}
		mach.CPU.DrainMem()
		g.mets[c].InitCycles = mach.CPU.Cycles()
	})
}

// accumulate is the Accumulate phase PB-SW, COBRA and PHI share:
// owner-computes over the bin range. perSrc[s] holds source core s's
// bins, prefix[s] their positions in its bin array (prefix[s][b] is
// bin b's first tuple, prefix[s][numBins] the source's total), and
// srcRegions[s] that simulated bin array; nil srcRegions are allocated
// here, each sized to its source's tuples (for bins the Binning phase
// materialized without a software layout). For each owned bin, every
// source's segment is read sequentially and applied in source order —
// which is input order, preserving per-key update sequence exactly.
func (g *gang) accumulate(perSrc [][][]core.Tuple, prefix [][]int, srcRegions []Region) error {
	tb := uint64(g.app.TupleBytes)
	numBins := len(perSrc[0])
	if srcRegions == nil {
		srcRegions = make([]Region, g.n)
		for s := range srcRegions {
			srcRegions[s] = g.alloc(uint64(prefix[s][numBins]) * tb)
		}
	}
	return g.phase("accumulate.wall", func(c int, mach *Mach) {
		start := markPhase(mach)
		binLo, binHi := shardRange(c, g.n, numBins)
		for b := binLo; b < binHi; b++ {
			for s := range perSrc {
				seg := perSrc[s][b]
				pos := prefix[s][b]
				// Per-(bin, source) prologue: offsets lookup + loop setup.
				mach.CPU.ALU(6)
				mach.CPU.Load(srcRegions[s].Addr(uint64(pos) * tb))
				mach.CPU.Branch(pcBinLoop, len(seg) != 0)
				for _, t := range seg {
					mach.CPU.Load(srcRegions[s].Addr(uint64(pos) * tb))
					mach.CPU.Branch(pcBinLoop, true)
					mach.CPU.ALU(1 + g.app.ApplyALU)
					g.applier.Apply(mach, t.Key, t.Val)
					pos++
				}
			}
		}
		mach.CPU.DrainMem()
		met := &g.mets[c]
		met.AccumCycles, met.AccumCtr, met.AccumMem = start.since(mach)
	})
}

// pbLayout bundles the software-PB data structures of one run.
type pbLayout struct {
	numBins  int
	shift    uint
	cbuf     Region   // numBins × 64 B coalescing buffers
	cnt      Region   // numBins × 4 B per-C-Buffer fill counters
	binPos   Region   // numBins × 4 B bin write cursors
	bins     []Region // per source core: its chunk × TupleBytes in-memory bins
	tuplesPL int
}

// planPB lays out software PB: the per-core private structures
// (C-Buffers, counters, cursors) share one layout, and each source
// core gets its own bin region sized to its stream chunk — tuples from
// different sources never alias a cache line.
func (g *gang) planPB(numBins int) pbLayout {
	app := g.app
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
	lay := pbLayout{
		numBins:  bins,
		shift:    shift,
		cbuf:     g.alloc(uint64(bins) * 64),
		cnt:      g.alloc(uint64(bins) * 4),
		binPos:   g.alloc(uint64(bins) * 4),
		bins:     make([]Region, g.n),
		tuplesPL: 64 / app.TupleBytes,
	}
	for s := range lay.bins {
		lo, hi := shardRange(s, g.n, app.NumUpdates)
		lay.bins[s] = g.alloc(uint64(hi-lo) * uint64(app.TupleBytes))
	}
	return lay
}

// RunPBSW executes software propagation blocking with the given bin
// count (Algorithm 2): Init (exact bin sizing), Binning through
// cacheline-sized software C-Buffers flushed with non-temporal stores,
// then Accumulate over the materialized bins. Init and Binning stream
// per-core chunks into core-private bins; Accumulate owner-computes
// over the bin range, replaying every source's segment per owned bin.
func RunPBSW(app *App, numBins int, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	g := newGang(app, arch, SchemePBSW)
	defer g.close()
	lay := g.planPB(numBins)

	if err := g.initCount(lay.cnt, lay.shift, lay.numBins, g.hostBins(lay.numBins)); err != nil {
		return Metrics{}, err
	}

	// ---- Binning: per-core chunks into private bins ----
	perSrc := make([][][]core.Tuple, g.n)
	prefix := make([][]int, g.n)
	tb := uint64(app.TupleBytes)
	err := g.phase("binning.wall", func(c int, mach *Mach) {
		start := markPhase(mach)
		scratch := &mach.bins
		scratch.prefixSums()
		tuples := scratch.tuples // materialized software bins, bin after bin
		off := scratch.off       // bin b's first tuple in tuples
		fill := scratch.fill     // tuples in each software C-Buffer
		binPos := scratch.binPos // write cursor into each memory bin
		binRegion := lay.bins[c]
		g.forEachChunk(c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.CPU.Load(g.input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.CPU.Branch(pcInnerLoop, !newGroup)
			b := int(key >> lay.shift)
			// Bin b holds binPos[b] flushed plus fill[b] buffered tuples.
			tuples[off[b]+binPos[b]+fill[b]] = core.Tuple{Key: key, Val: val}
			mach.CPU.ALU(2) // shift + C-Buffer address math
			// Read-modify-write the C-Buffer fill counter, store the tuple.
			cntAddr := lay.cnt.Addr(uint64(b) * 4)
			mach.CPU.Load(cntAddr)
			mach.CPU.Store(lay.cbuf.Addr(uint64(b)*64 + uint64(fill[b])*tb))
			mach.CPU.ALU(1)
			mach.CPU.Store(cntAddr)
			fill[b]++
			full := fill[b] == lay.tuplesPL
			mach.CPU.Branch(pcCBufFull, !full)
			if full {
				// Bulk transfer: non-temporal stores of the C-Buffer's
				// tuples into the in-memory bin at this bin's cursor.
				posAddr := lay.binPos.Addr(uint64(b) * 4)
				mach.CPU.Load(posAddr)
				for k := 0; k < lay.tuplesPL; k++ {
					mach.CPU.StoreNT(binRegion.Addr(uint64(binPos[b]+k) * tb))
					mach.CPU.ALU(1)
				}
				binPos[b] += lay.tuplesPL
				mach.CPU.ALU(1)
				mach.CPU.Store(posAddr)
				fill[b] = 0
			}
		})
		// Flush partial C-Buffers (software epilogue).
		for b := 0; b < lay.numBins; b++ {
			mach.CPU.Load(lay.cnt.Addr(uint64(b) * 4))
			mach.CPU.Branch(pcCBufFull, fill[b] == 0)
			for k := 0; k < fill[b]; k++ {
				mach.CPU.StoreNT(binRegion.Addr(uint64(binPos[b]+k) * tb))
				mach.CPU.ALU(1)
			}
			binPos[b] += fill[b]
			fill[b] = 0
		}
		mach.CPU.DrainMem()
		met := &g.mets[c]
		met.BinCycles, met.BinCtr, met.BinMem = start.since(mach)
		for b := range scratch.bins {
			scratch.bins[b] = tuples[off[b]:off[b+1]]
		}
		perSrc[c], prefix[c] = scratch.bins, off
	})
	if err != nil {
		return Metrics{}, err
	}

	if err := g.accumulate(perSrc, prefix, lay.bins); err != nil {
		return Metrics{}, err
	}
	return g.merge(lay.numBins), nil
}

// cobraConfig builds the COBRA machine configuration opt selects for
// app (defaults where an option is zero).
func cobraConfig(app *App, opt CobraOpt) (core.Config, error) {
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
			return cfg, fmt.Errorf("sim: COBRA-COMM is inapplicable to %s (§III-B: updates must coalesce losslessly)", app.Name)
		}
		cfg.CoalesceFn = app.Reduce
	}
	return cfg, nil
}

// RunCOBRA executes the COBRA scheme: the Init counting pass (bin sizes
// are precomputed exactly as in PB, §V-E), bininit, a Binning phase of
// single binupdate instructions through the hardware C-Buffer
// hierarchy, binflush, then Accumulate over the hardware-materialized
// bins (one per LLC C-Buffer — the optimal large bin count). Each core
// owns a full hardware C-Buffer hierarchy (the paper duplicates
// C-Buffers per core and assigns each core's LLC C-Buffers to its own
// NUCA banks) and bins its stream chunk; Accumulate owner-computes over
// every core's hardware bins.
func RunCOBRA(app *App, opt CobraOpt, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	cfg, err := cobraConfig(app, opt)
	if err != nil {
		return Metrics{}, err
	}
	scheme := SchemeCOBRA
	if opt.Coalesce {
		scheme = SchemeComm
	}
	g := newGang(app, arch, scheme)
	defer g.close()
	machines := make([]*core.Machine, g.n)
	for c := range machines {
		machines[c] = core.NewMachine(&g.machs[c].cbufs, g.machs[c].CPU, cfg)
		machines[c].Bins = g.machs[c].bins.bins // headers for BinInit to reuse
		if err := machines[c].BinInit(uint64(app.NumKeys)); err != nil {
			return Metrics{}, err
		}
	}
	// The count array is one slot per memory bin, which bininit has
	// fixed: one per LLC C-Buffer. Offsets must exist before Binning
	// (§V-E).
	numBins := machines[0].NumBins()
	if err := g.initCount(g.alloc(uint64(numBins)*4), machines[0].BinShiftLLC(), numBins, g.hostBins(numBins)); err != nil {
		return Metrics{}, err
	}

	// ---- Binning: one binupdate per tuple, per-core C-Buffers ----
	err = g.phase("binning.wall", func(c int, mach *Mach) {
		m := machines[c]
		// Each in-memory bin is a window of the core's arena at Init's
		// offset, exactly as large as Init counted.
		mach.bins.prefixSums()
		m.Bins = mach.bins.carve()
		start := markPhase(mach)
		g.forEachChunk(c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.CPU.Load(g.input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.CPU.Branch(pcInnerLoop, !newGroup)
			m.BinUpdate(key, val)
		})
		m.BinFlush()
		met := &g.mets[c]
		met.BinCycles, met.BinCtr, met.BinMem = start.since(mach)
		met.EvictStalls, _ = m.EvictionStalls()
		if met.BinCycles > 0 {
			met.EvictStallFrac = met.EvictStalls / met.BinCycles
		}
		met.CtxWasteBytes = m.St.CtxWasteBytes
		met.CtxSwitches = m.St.CtxSwitches
		met.CBufMissRate = m.St.CBufMissRate()
	})
	if err != nil {
		return Metrics{}, err
	}
	if opt.SkipAccum {
		return g.merge(numBins), nil
	}

	perSrc := make([][][]core.Tuple, g.n)
	prefix := make([][]int, g.n)
	for s := range perSrc {
		perSrc[s] = machines[s].Bins
		if opt.MaxLLCBufs > 0 && opt.MaxLLCBufs < len(perSrc[s]) {
			perSrc[s] = regroupBins(perSrc[s], opt.MaxLLCBufs)
		}
		prefix[s] = g.machs[s].bins.lenPrefix(perSrc[s])
	}
	if err := g.accumulate(perSrc, prefix, nil); err != nil {
		return Metrics{}, err
	}
	return g.merge(numBins), nil
}

// RunPHI models PHI for a commutative app (Figure 14): idealized
// zero-overhead hierarchical coalescing during Binning (traffic =
// stream reads + residue writes), then an Accumulate pass over the
// coalesced residue with PB-SW's (compromised) bin count. Each core
// has its own coalescing unit over its stream chunk (partial residues
// per core — cross-core updates to one key coalesce only at
// Accumulate, which is exact for the integer monoids PHI admits).
func RunPHI(app *App, numBins int, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	if !app.Commutative || app.Reduce == nil {
		return Metrics{}, fmt.Errorf("sim: PHI is inapplicable to %s (§III-B: updates must coalesce losslessly)", app.Name)
	}
	g := newGang(app, arch, SchemePHI)
	defer g.close()
	phiCfg := phi.DefaultConfig(app.TupleBytes, numBins)
	phiCfg.Reduce = app.Reduce
	models := make([]*phi.Model, g.n)
	for c := range models {
		models[c] = phi.New(&g.machs[c].phi, phiCfg, uint64(app.NumKeys))
	}

	// ---- Binning: stream the chunk (real cache traffic); coalescing
	// and residue writes are idealized per the paper's PHI methodology.
	err := g.phase("binning.wall", func(c int, mach *Mach) {
		model := models[c]
		start := markPhase(mach)
		g.forEachChunk(c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.CPU.Load(g.input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.CPU.Branch(pcInnerLoop, !newGroup)
			mach.CPU.BinUpdate()   // PHI also uses a single update instruction
			model.Update(key, val) // pure functional model: no machine state read
		})
		model.Flush()
		mach.H.WriteLineDirect((model.St.MemBytes + 63) / 64)
		mach.CPU.DrainMem()
		// BinCtr stays zero: PHI's idealized Binning reports cycles and
		// memory activity only.
		met := &g.mets[c]
		met.BinCycles, _, met.BinMem = start.since(mach)
	})
	if err != nil {
		return Metrics{}, err
	}

	perSrc := make([][][]core.Tuple, g.n)
	prefix := make([][]int, g.n)
	for s := range perSrc {
		perSrc[s] = models[s].Bins
		prefix[s] = g.machs[s].bins.lenPrefix(perSrc[s])
	}
	err = g.accumulate(perSrc, prefix, nil)
	// The residue is applied: drop it, so the machines keep only the
	// bin headers.
	for _, m := range models {
		clear(m.Bins)
	}
	if err != nil {
		return Metrics{}, err
	}
	return g.merge(models[0].NumBins()), nil
}
