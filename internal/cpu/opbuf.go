package cpu

import (
	"cobra/internal/mem"
)

// OpKind tags one buffered micro-op.
type OpKind uint8

// Buffered micro-op kinds, mirroring the Core methods.
const (
	OpALU OpKind = iota
	OpLoad
	OpLoadDep
	OpStore
	OpStoreNT
	OpBranch
	OpBinUpdate
)

// Op is one buffered micro-op. Addr is overloaded: the memory address
// for loads/stores, the branch PC for OpBranch, and the op count for
// OpALU. ALU counts simple micro-ops folded into this op: they retire
// right after it, as the ALU call that followed it would have. The
// field fits in the struct's padding, so an Op is 16 bytes.
type Op struct {
	Addr  uint64
	Kind  OpKind
	Taken bool  // OpBranch outcome
	ALU   uint8 // folded ALU(n) that retires right after this op; < aluFoldMax
}

// aluFoldMax bounds the ALU(n) that fold: OpBuf's n/IssueWidth table
// has this many entries. Larger groups (COBRA's bininit charges one op
// per LLC C-Buffer) are buffered as an OpALU op of their own.
const aluFoldMax = 16

// opBufCap is NewOpBuf's flush threshold. Large enough to amortize the
// batch setup over many references, small enough that the ref/level
// scratch stays L1-resident in the host cache.
const opBufCap = 256

// OpBuf batches micro-ops destined for one Core and retires them in
// Flush: memory references resolve first through mem.AccessBatch (the
// hierarchy is cycle-free, so residency state never depends on the
// core clock), then timing replays the ops in program order performing
// exactly the floating-point operations the scalar Core methods would
// — same additions, same divisions, same order — so cycle counts are
// bit-identical, not merely close.
//
// A small ALU group rides in the previous buffered op's ALU byte
// instead of taking an op of its own (see ALU); the replay retires it
// right after that op with the same n/IssueWidth addition, so folding
// changes no cycle. A capacity-1 buffer is empty at every emit and so
// never folds: the op-at-a-time oracle retires every ALU on its own.
//
// The buffer flushes itself as soon as it holds its capacity in ops,
// so a buffer of capacity 1 retires every op as it arrives. Callers
// must call Flush before reading Cycles/Ctr/hierarchy stats or touching
// the Core or Hierarchy directly (AdvanceCycles, DrainMem, core.Machine
// interactions).
type OpBuf struct {
	c      *Core
	ops    []Op
	refs   []mem.Ref
	levels []mem.Level

	// Hoisted once at construction (the core config is immutable):
	// latency table indexed by mem.Level, issue width, the n/width
	// increments of an ALU(n) and (n = 1) of every other op — the same
	// constant divisions the scalar issue(n) performs, so reusing their
	// results is bit-identical — and the branch misprediction penalty.
	latTab  [4]uint32
	w       float64
	issueN  [aluFoldMax]float64
	penalty float64
}

// NewOpBuf builds a batching op buffer for c.
func NewOpBuf(c *Core) *OpBuf { return NewOpBufCap(c, opBufCap) }

// NewOpBufCap builds an op buffer for c that flushes every capacity
// ops; capacity 1 retires each op as it is emitted.
func NewOpBufCap(c *Core, capacity int) *OpBuf {
	if capacity < 1 {
		panic("cpu: OpBuf capacity must be positive")
	}
	b := &OpBuf{
		c:      c,
		ops:    make([]Op, 0, capacity),
		refs:   make([]mem.Ref, 0, capacity),
		levels: make([]mem.Level, 0, capacity),
	}
	lat := c.Mem.Config().Lat
	b.latTab = [4]uint32{lat.L1, lat.L2, lat.LLC, lat.DRAM}
	b.w = float64(c.cfg.IssueWidth)
	for n := range b.issueN {
		b.issueN[n] = float64(n) / b.w
	}
	b.penalty = float64(c.cfg.BranchPenalty)
	return b
}

// Reset drops any buffered ops without retiring them, returning the
// buffer to its post-construction state for a recycled machine.
func (b *OpBuf) Reset() {
	b.ops = b.ops[:0]
	b.refs = b.refs[:0]
	b.levels = b.levels[:0]
}

// Core returns the bound core.
func (b *OpBuf) Core() *Core { return b.c }

// push appends op, then flushes a full buffer (so an op of a
// capacity-1 buffer retires before its emit method returns).
func (b *OpBuf) push(op Op) {
	b.ops = append(b.ops, op)
	if len(b.ops) == cap(b.ops) {
		b.Flush()
	}
}

// pushRef pushes a memory op along with its reference, so Flush needs
// no separate ref-building pass.
func (b *OpBuf) pushRef(op Op, kind mem.RefKind) {
	b.refs = append(b.refs, mem.Ref{Addr: op.Addr, Kind: kind})
	b.push(op)
}

// ALU buffers n simple micro-ops (one issue group, as Core.ALU). A
// small group folds into the previous buffered op when that op carries
// none yet; otherwise (an empty buffer, a second ALU in a row, or n of
// aluFoldMax or more) it is an OpALU op of its own.
func (b *OpBuf) ALU(n int) {
	if n <= 0 {
		return
	}
	if k := len(b.ops); k > 0 && n < aluFoldMax && b.ops[k-1].ALU == 0 {
		b.ops[k-1].ALU = uint8(n)
		return
	}
	b.push(Op{Addr: uint64(n), Kind: OpALU})
}

// Load buffers an independent load.
func (b *OpBuf) Load(addr uint64) { b.pushRef(Op{Addr: addr, Kind: OpLoad}, mem.RefLoad) }

// LoadDep buffers a dependent load (execution serializes on its fill).
func (b *OpBuf) LoadDep(addr uint64) { b.pushRef(Op{Addr: addr, Kind: OpLoadDep}, mem.RefLoad) }

// Store buffers a demand store.
func (b *OpBuf) Store(addr uint64) { b.pushRef(Op{Addr: addr, Kind: OpStore}, mem.RefStore) }

// StoreNT buffers a non-temporal store.
func (b *OpBuf) StoreNT(addr uint64) { b.pushRef(Op{Addr: addr, Kind: OpStoreNT}, mem.RefStoreNT) }

// Branch buffers a conditional branch outcome.
func (b *OpBuf) Branch(pc uint64, taken bool) { b.push(Op{Addr: pc, Kind: OpBranch, Taken: taken}) }

// BinUpdate buffers a COBRA binupdate issue slot.
func (b *OpBuf) BinUpdate() { b.push(Op{Kind: OpBinUpdate}) }

// Flush retires every buffered op. Safe to call when empty.
func (b *OpBuf) Flush() {
	if len(b.ops) == 0 {
		return
	}
	c := b.c

	// Phase 1: resolve all memory references (accumulated ref-by-ref at
	// push time). The hierarchy's functional state is independent of the
	// core clock, so resolving ahead of the timing replay observes
	// exactly the state each scalar call would.
	b.levels = c.Mem.AccessBatch(b.refs, b.levels)

	// Phase 2: timing replay in program order, performing the identical
	// floating-point operations the scalar path would. The clock lives in
	// cyc, stored back around the occupy calls that read and advance it.
	latTab := b.latTab
	w := b.w
	issueN := &b.issueN
	oneOp := issueN[1]
	penalty := b.penalty
	levels := b.levels
	li := 0
	cyc := c.cycle
	// Event counters accumulate in batch-locals and fold into Ctr once:
	// integer addition commutes, so the totals are exact; only the cycle
	// clock (floating point, order-sensitive) updates op-by-op.
	var instr, aluOps, loads, stores, branches, brMiss, binUpd uint64
	var loadLvl [4]uint64
	for i := range b.ops {
		op := &b.ops[i]
		switch op.Kind {
		case OpALU:
			aluOps += op.Addr
			instr += op.Addr
			cyc += float64(op.Addr) / w
		case OpLoad, OpLoadDep:
			level := levels[li]
			li++
			loads++
			instr++
			cyc += oneOp
			loadLvl[level]++
			if level != mem.L1 {
				l := latTab[level]
				if level == mem.LLC || level == mem.DRAM {
					l += c.Mem.LLCExtraCycles(op.Addr)
				}
				c.cycle = cyc
				done := c.occupy(float64(l))
				cyc = c.cycle
				if op.Kind == OpLoadDep && done > cyc {
					cyc = done
				}
			}
		case OpStore:
			level := levels[li]
			li++
			stores++
			instr++
			cyc += oneOp
			if level != mem.L1 {
				c.cycle = cyc
				c.occupy(float64(latTab[level]) / 2)
				cyc = c.cycle
			}
		case OpStoreNT:
			li++
			stores++
			instr++
			cyc += oneOp
		case OpBranch:
			branches++
			instr++
			cyc += oneOp
			if !c.bp.predict(op.Addr, op.Taken) {
				brMiss++
				cyc += penalty
			}
		default: // OpBinUpdate
			binUpd++
			instr++
			cyc += oneOp
		}
		if n := op.ALU; n != 0 {
			// The folded ALU(n), retiring right after its host op.
			aluOps += uint64(n)
			instr += uint64(n)
			cyc += issueN[n]
		}
	}
	c.cycle = cyc
	c.Ctr.Instructions += instr
	c.Ctr.ALUOps += aluOps
	c.Ctr.Loads += loads
	c.Ctr.LoadsL1 += loadLvl[mem.L1]
	c.Ctr.LoadsL2 += loadLvl[mem.L2]
	c.Ctr.LoadsLLC += loadLvl[mem.LLC]
	c.Ctr.LoadsDRAM += loadLvl[mem.DRAM]
	c.Ctr.Stores += stores
	c.Ctr.Branches += branches
	c.Ctr.BranchMisses += brMiss
	c.Ctr.BinUpdates += binUpd
	b.ops = b.ops[:0]
	b.refs = b.refs[:0]
}
