package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"cobra/internal/mem"
)

// genOps produces a random op stream that exercises every op kind,
// same-line bursts (read-modify-write pairs), streaming runs,
// correlated branch outcomes, and every ALU(n) shape: n = 0, n small
// enough to fold, n of aluFoldMax or more, and two ALU groups in a row.
func genOps(rng *rand.Rand, n int) []Op {
	ops := make([]Op, 0, n)
	addr := rng.Uint64() % (1 << 22)
	for len(ops) < n {
		switch rng.Intn(13) {
		case 0:
			ops = append(ops, Op{Addr: uint64(1 + rng.Intn(8)), Kind: OpALU})
		case 1:
			addr = rng.Uint64() % (1 << 22)
			ops = append(ops, Op{Addr: addr, Kind: OpLoad})
		case 2: // read-modify-write to one address (the accumulate idiom)
			a := rng.Uint64() % (1 << 22)
			ops = append(ops, Op{Addr: a, Kind: OpLoad}, Op{Addr: a, Kind: OpStore})
		case 3:
			addr += 64
			ops = append(ops, Op{Addr: addr, Kind: OpLoad})
		case 4:
			ops = append(ops, Op{Addr: rng.Uint64() % (1 << 22), Kind: OpLoadDep})
		case 5:
			ops = append(ops, Op{Addr: rng.Uint64() % (1 << 22), Kind: OpStore})
		case 6:
			addr += 16
			ops = append(ops, Op{Addr: addr, Kind: OpStoreNT})
		case 7:
			pc := uint64(0x100 + 0x100*rng.Intn(3))
			ops = append(ops, Op{Addr: pc, Kind: OpBranch, Taken: rng.Intn(4) != 0})
		case 8:
			ops = append(ops, Op{Kind: OpBinUpdate})
		case 9:
			ops = append(ops, Op{Addr: 0, Kind: OpALU})
		case 10: // too wide to fold (COBRA's bininit: 3 + C-Buffer count)
			ops = append(ops, Op{Addr: uint64(aluFoldMax + rng.Intn(4096)), Kind: OpALU})
		case 11:
			ops = append(ops, Op{Addr: uint64(1 + rng.Intn(8)), Kind: OpALU},
				Op{Addr: uint64(1 + rng.Intn(8)), Kind: OpALU})
		default:
			ops = append(ops, Op{Addr: uint64(1 + rng.Intn(3)), Kind: OpALU})
		}
	}
	return ops[:n]
}

// Test-only stream events for what core.Machine does to a core
// between emits: the buffered side flushes, then both sides call the
// Core directly.
const (
	opAdvance OpKind = 100 + iota // Core.AdvanceCycles(float64(Addr))
	opDrain                       // Core.DrainMem()
)

// withBarriers sprinkles AdvanceCycles and DrainMem events into ops,
// about one per hundred ops.
func withBarriers(rng *rand.Rand, ops []Op) []Op {
	out := make([]Op, 0, len(ops)+len(ops)/50)
	for _, op := range ops {
		out = append(out, op)
		switch rng.Intn(200) {
		case 0:
			out = append(out, Op{Addr: uint64(1 + rng.Intn(40)), Kind: opAdvance})
		case 1:
			out = append(out, Op{Kind: opDrain})
		}
	}
	return out
}

// scalarFeed executes ops through the scalar Core methods: the
// reference the buffered replay must match bit for bit.
func scalarFeed(c *Core, ops []Op) {
	for _, op := range ops {
		switch op.Kind {
		case OpALU:
			c.ALU(int(op.Addr))
		case OpLoad:
			c.Load(op.Addr)
		case OpLoadDep:
			c.LoadDep(op.Addr)
		case OpStore:
			c.Store(op.Addr)
		case OpStoreNT:
			c.StoreNT(op.Addr)
		case OpBranch:
			c.Branch(op.Addr, op.Taken)
		case OpBinUpdate:
			c.BinUpdate()
		case opAdvance:
			c.AdvanceCycles(float64(op.Addr))
		case opDrain:
			c.DrainMem()
		}
	}
}

// aluPaths counts which OpBuf.ALU path each emitted ALU group took.
type aluPaths struct {
	zero      int // n = 0: nothing buffered
	wide      int // n >= aluFoldMax: an OpALU op of its own
	afterFull int // the buffer had just flushed itself: an OpALU op of its own
	twice     int // the previous op already carries a fold: an OpALU op of its own
	folded    int // folded into the previous buffered op
}

func (p *aluPaths) add(o aluPaths) {
	p.zero += o.zero
	p.wide += o.wide
	p.afterFull += o.afterFull
	p.twice += o.twice
	p.folded += o.folded
}

// check fails unless the streams of one cadence took both the fold
// path and every no-fold path it must cover. A capacity-1 buffer is
// empty whenever an op is emitted, so it never folds and every group
// follows a self-flush. The random cadence's explicit flushes make a
// self-flush right before an ALU group rare, so only the fixed
// cadences must show one.
func (p aluPaths) check(t *testing.T, cadence string) {
	t.Helper()
	ok := p.zero > 0 && p.wide > 0
	switch cadence {
	case "cap=1":
		ok = ok && p.afterFull > 0 && p.folded == 0 && p.twice == 0
	case "cap=256":
		ok = ok && p.afterFull > 0 && p.folded > 0 && p.twice > 0
	default:
		ok = ok && p.folded > 0 && p.twice > 0
	}
	if !ok {
		t.Fatalf("%s: ALU paths not covered as required: %+v", cadence, p)
	}
}

// feed emits ops through b, flushing before every barrier event and
// wherever flushAt (if non-nil) says so, then flushes the tail. It
// reports which ALU paths the emitted groups took.
func feed(b *OpBuf, ops []Op, flushAt func() bool) aluPaths {
	var p aluPaths
	selfFlushed := false // the last push left the buffer empty by flushing it
	for _, op := range ops {
		switch op.Kind {
		case OpALU:
			k := len(b.ops)
			switch n := int(op.Addr); {
			case n == 0:
				p.zero++
			case n >= aluFoldMax:
				p.wide++
			case k == 0:
				if selfFlushed {
					p.afterFull++
				}
			case b.ops[k-1].ALU != 0:
				p.twice++
			default:
				p.folded++
			}
			b.ALU(int(op.Addr))
		case OpLoad:
			b.Load(op.Addr)
		case OpLoadDep:
			b.LoadDep(op.Addr)
		case OpStore:
			b.Store(op.Addr)
		case OpStoreNT:
			b.StoreNT(op.Addr)
		case OpBranch:
			b.Branch(op.Addr, op.Taken)
		case OpBinUpdate:
			b.BinUpdate()
		case opAdvance:
			b.Flush()
			b.Core().AdvanceCycles(float64(op.Addr))
		case opDrain:
			b.Flush()
			b.Core().DrainMem()
		}
		switch {
		case op.Kind == opAdvance || op.Kind == opDrain:
			selfFlushed = false
		case op.Kind != OpALU || op.Addr != 0:
			selfFlushed = len(b.ops) == 0
		}
		if flushAt != nil && flushAt() {
			b.Flush()
			selfFlushed = false
		}
	}
	b.Flush()
	return p
}

// cadence is one way of cutting an op stream into flushes.
type cadence struct {
	name    string
	newBuf  func(c *Core) *OpBuf
	flushAt func() bool
}

// cadences covers op-at-a-time retirement, the production batch size,
// and random buffer capacities with random explicit flushes.
func cadences(rng *rand.Rand) []cadence {
	return []cadence{
		{"cap=1", func(c *Core) *OpBuf { return NewOpBufCap(c, 1) }, nil},
		{"cap=256", NewOpBuf, nil},
		{"random", func(c *Core) *OpBuf { return NewOpBufCap(c, 1+rng.Intn(opBufCap)) },
			func() bool { return rng.Intn(50) == 0 }},
	}
}

// checkSameCore fails unless the two cores — clock, counters, MSHRs,
// branch predictor — and their hierarchies' stats and DRAM traffic are
// identical. The clock must match bit for bit (==, not within epsilon).
// (The hierarchies' host-side lookup hints legitimately differ between
// the scalar and batched access paths, so they are not compared.)
func checkSameCore(t *testing.T, what string, scalar, buffered *Core) {
	t.Helper()
	if scalar.cycle != buffered.cycle {
		t.Fatalf("%s: cycle diverged: scalar=%v buffered=%v (diff %v)",
			what, scalar.cycle, buffered.cycle, scalar.cycle-buffered.cycle)
	}
	if scalar.Ctr != buffered.Ctr {
		t.Fatalf("%s: counters diverged\nscalar:   %+v\nbuffered: %+v", what, scalar.Ctr, buffered.Ctr)
	}
	s, b := *scalar, *buffered
	s.Mem, b.Mem = nil, nil
	if !reflect.DeepEqual(s, b) {
		t.Fatalf("%s: MSHR or branch predictor state diverged", what)
	}
	sm, bm := scalar.Mem, buffered.Mem
	if sm.DRAMTraffic != bm.DRAMTraffic {
		t.Fatalf("%s: DRAM traffic diverged: %+v vs %+v", what, sm.DRAMTraffic, bm.DRAMTraffic)
	}
	if sm.L1c.Stats != bm.L1c.Stats || sm.L2c.Stats != bm.L2c.Stats || sm.LLCc.Stats != bm.LLCc.Stats {
		t.Fatalf("%s: cache stats diverged", what)
	}
}

// TestOpBufMatchesScalarCore replays identical op streams through the
// scalar Core methods and through an OpBuf at several flush cadences,
// on twin cores; the cores must end bit-identical.
func TestOpBufMatchesScalarCore(t *testing.T) {
	cfgs := map[string]mem.Config{"default": mem.DefaultConfig()}
	nuca := mem.DefaultConfig()
	nuca.NUCA = mem.DefaultNUCA()
	cfgs["nuca"] = nuca
	for name, mcfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(123))
			for _, cd := range cadences(rng) {
				t.Run(cd.name, func(t *testing.T) {
					var paths aluPaths
					for trial := 0; trial < 4; trial++ {
						ops := genOps(rng, 5000+rng.Intn(3000))
						scalarCore := New(DefaultConfig(), mem.New(mcfg))
						bufCore := New(DefaultConfig(), mem.New(mcfg))
						scalarFeed(scalarCore, ops)
						paths.add(feed(cd.newBuf(bufCore), ops, cd.flushAt))
						checkSameCore(t, fmt.Sprintf("trial %d", trial), scalarCore, bufCore)
					}
					paths.check(t, cd.name)
				})
			}
		})
	}
}

// TestOpBufFlushBoundaries interleaves AdvanceCycles and DrainMem
// barriers into the stream, as core.Machine does mid-phase (eviction
// stalls, BinFlush), and checks that every flush cadence still matches
// the scalar reference.
func TestOpBufFlushBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, cd := range cadences(rng) {
		t.Run(cd.name, func(t *testing.T) {
			var paths aluPaths
			for trial := 0; trial < 4; trial++ {
				ops := withBarriers(rng, genOps(rng, 4000))
				scalarCore := New(DefaultConfig(), mem.New(mem.DefaultConfig()))
				bufCore := New(DefaultConfig(), mem.New(mem.DefaultConfig()))
				scalarFeed(scalarCore, ops)
				paths.add(feed(cd.newBuf(bufCore), ops, cd.flushAt))
				checkSameCore(t, fmt.Sprintf("trial %d", trial), scalarCore, bufCore)
			}
			paths.check(t, cd.name)
		})
	}
}

// TestOpSize pins Op at 16 bytes: the folded ALU count lives in what
// was padding.
func TestOpSize(t *testing.T) {
	if sz := unsafe.Sizeof(Op{}); sz != 16 {
		t.Fatalf("Op is %d bytes, want 16", sz)
	}
}

// TestOpBufZeroAllocSteadyState pins the buffered push+flush cycle at
// zero allocations once constructed.
func TestOpBufZeroAllocSteadyState(t *testing.T) {
	core := New(DefaultConfig(), mem.New(mem.DefaultConfig()))
	b := NewOpBuf(core)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1024; i++ {
			b.Load(uint64(i%8) * 64)
			b.ALU(1)
			b.Store(uint64(i%8) * 64)
		}
		b.Flush()
	})
	if allocs != 0 {
		t.Fatalf("OpBuf steady state allocates: %v allocs/op", allocs)
	}
}
