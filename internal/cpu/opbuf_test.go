package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cobra/internal/mem"
)

// genOps produces a random op stream that exercises every op kind,
// same-line bursts (read-modify-write pairs), streaming runs, and
// correlated branch outcomes.
func genOps(rng *rand.Rand, n int) []Op {
	ops := make([]Op, 0, n)
	addr := rng.Uint64() % (1 << 22)
	for len(ops) < n {
		switch rng.Intn(10) {
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

// feed emits ops through b, flushing before every barrier event and
// wherever flushAt (if non-nil) says so, then flushes the tail.
func feed(b *OpBuf, ops []Op, flushAt func() bool) {
	for _, op := range ops {
		switch op.Kind {
		case OpALU:
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
		if flushAt != nil && flushAt() {
			b.Flush()
		}
	}
	b.Flush()
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
					for trial := 0; trial < 4; trial++ {
						ops := genOps(rng, 5000+rng.Intn(3000))
						scalarCore := New(DefaultConfig(), mem.New(mcfg))
						bufCore := New(DefaultConfig(), mem.New(mcfg))
						scalarFeed(scalarCore, ops)
						feed(cd.newBuf(bufCore), ops, cd.flushAt)
						checkSameCore(t, fmt.Sprintf("trial %d", trial), scalarCore, bufCore)
					}
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
			for trial := 0; trial < 4; trial++ {
				ops := withBarriers(rng, genOps(rng, 4000))
				scalarCore := New(DefaultConfig(), mem.New(mem.DefaultConfig()))
				bufCore := New(DefaultConfig(), mem.New(mem.DefaultConfig()))
				scalarFeed(scalarCore, ops)
				feed(cd.newBuf(bufCore), ops, cd.flushAt)
				checkSameCore(t, fmt.Sprintf("trial %d", trial), scalarCore, bufCore)
			}
		})
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
