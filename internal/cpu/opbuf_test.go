package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cobra/internal/mem"
)

// opKind tags one micro-op of a test stream.
type opKind uint8

// Test stream events: the issue methods, and what core.Machine does to
// a core between them (AdvanceCycles on an eviction-buffer stall,
// DrainMem at BinFlush).
const (
	opALU opKind = iota
	opLoad
	opLoadDep
	opStore
	opStoreNT
	opBranch
	opBinUpdate
	opAdvance // Core.AdvanceCycles(float64(addr))
	opDrain   // Core.DrainMem()
	opMiss    // an MSHR allocation, occupy(missLat[addr%len]), with no issue slot
)

// op is one test stream event. addr is the memory address, the branch
// PC, the ALU op count, or the AdvanceCycles amount.
type op struct {
	addr  uint64
	kind  opKind
	taken bool // opBranch outcome
}

// genOps produces a random op stream that exercises every op kind,
// same-line bursts (read-modify-write pairs), streaming runs,
// correlated branch outcomes, and every ALU(n) shape: n = 0, n below
// and above the core's hoisted n/IssueWidth table, and two ALU groups
// in a row.
func genOps(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n)
	addr := rng.Uint64() % (1 << 22)
	for len(ops) < n {
		switch rng.Intn(13) {
		case 0:
			ops = append(ops, op{addr: uint64(1 + rng.Intn(8)), kind: opALU})
		case 1:
			addr = rng.Uint64() % (1 << 22)
			ops = append(ops, op{addr: addr, kind: opLoad})
		case 2: // read-modify-write to one address (the accumulate idiom)
			a := rng.Uint64() % (1 << 22)
			ops = append(ops, op{addr: a, kind: opLoad}, op{addr: a, kind: opStore})
		case 3:
			addr += 64
			ops = append(ops, op{addr: addr, kind: opLoad})
		case 4:
			ops = append(ops, op{addr: rng.Uint64() % (1 << 22), kind: opLoadDep})
		case 5:
			ops = append(ops, op{addr: rng.Uint64() % (1 << 22), kind: opStore})
		case 6:
			addr += 16
			ops = append(ops, op{addr: addr, kind: opStoreNT})
		case 7:
			pc := uint64(0x100 + 0x100*rng.Intn(3))
			ops = append(ops, op{addr: pc, kind: opBranch, taken: rng.Intn(4) != 0})
		case 8:
			ops = append(ops, op{kind: opBinUpdate})
		case 9:
			ops = append(ops, op{addr: 0, kind: opALU})
		case 10: // past the hoisted table (COBRA's bininit: 3 + C-Buffer count)
			ops = append(ops, op{addr: uint64(16 + rng.Intn(4096)), kind: opALU})
		case 11:
			ops = append(ops, op{addr: uint64(1 + rng.Intn(8)), kind: opALU},
				op{addr: uint64(1 + rng.Intn(8)), kind: opALU})
		default:
			ops = append(ops, op{addr: uint64(1 + rng.Intn(3)), kind: opALU})
		}
	}
	return ops[:n]
}

// withBarriers sprinkles AdvanceCycles and DrainMem events into ops,
// about one per hundred ops.
func withBarriers(rng *rand.Rand, ops []op) []op {
	out := make([]op, 0, len(ops)+len(ops)/50)
	for _, o := range ops {
		out = append(out, o)
		switch rng.Intn(200) {
		case 0:
			out = append(out, op{addr: uint64(1 + rng.Intn(40)), kind: opAdvance})
		case 1:
			out = append(out, op{kind: opDrain})
		}
	}
	return out
}

// issuer is what an op stream drives: a Core, an OpBuf, or the
// slot-model reference core of mshr_test.go.
type issuer interface {
	ALU(n int)
	Load(addr uint64)
	LoadDep(addr uint64)
	Store(addr uint64)
	StoreNT(addr uint64)
	Branch(pc uint64, taken bool)
	BinUpdate()
	AdvanceCycles(n float64)
	DrainMem()
	occupy(lat float64) float64
}

// apply issues one op on x.
func apply(x issuer, o op) {
	switch o.kind {
	case opALU:
		x.ALU(int(o.addr))
	case opLoad:
		x.Load(o.addr)
	case opLoadDep:
		x.LoadDep(o.addr)
	case opStore:
		x.Store(o.addr)
	case opStoreNT:
		x.StoreNT(o.addr)
	case opBranch:
		x.Branch(o.addr, o.taken)
	case opBinUpdate:
		x.BinUpdate()
	case opAdvance:
		x.AdvanceCycles(float64(o.addr))
	case opDrain:
		x.DrainMem()
	case opMiss:
		x.occupy(missLat[o.addr%uint64(len(missLat))])
	}
}

// scalarFeed executes ops on c directly, one call per op: the reference
// the OpBuf side must match bit for bit.
func scalarFeed(c *Core, ops []op) {
	for _, o := range ops {
		apply(c, o)
	}
}

// feed issues ops through b, calling Flush wherever flushAt says so and
// at the end.
func feed(b *OpBuf, ops []op, flushAt func() bool) {
	for _, o := range ops {
		apply(b, o)
		if flushAt() {
			b.Flush()
		}
	}
	b.Flush()
}

// cadence is one way of calling Flush through an op stream.
type cadence struct {
	name    string
	flushAt func() bool
}

// cadences calls Flush after every op and after every 256th (where a
// capacity-1 buffer and the former 256-op buffer retired their ops),
// and at random. Flush is a no-op, so no cadence may change a bit.
func cadences(rng *rand.Rand) []cadence {
	n := 0
	return []cadence{
		{"cap=1", func() bool { return true }},
		{"cap=256", func() bool { n++; return n%256 == 0 }},
		{"random", func() bool { return rng.Intn(50) == 0 }},
	}
}

// twinCores returns a core fed op by op and one fed through an OpBuf,
// over twin hierarchies built from mcfg.
func twinCores(mcfg mem.Config) (scalar *Core, fast *OpBuf) {
	return New(DefaultConfig(), mem.New(mcfg)), NewOpBuf(New(DefaultConfig(), mem.New(mcfg)))
}

// checkSameCore fails unless the two cores — clock, counters, MSHRs,
// branch predictor — and their hierarchies' stats and DRAM traffic are
// identical. The clock must match bit for bit (==, not within epsilon).
// (The mem package's tests compare the rest of the hierarchy state.)
func checkSameCore(t *testing.T, what string, scalar, fast *Core) {
	t.Helper()
	if scalar.cycle != fast.cycle {
		t.Fatalf("%s: cycle diverged: scalar=%v fast=%v (diff %v)",
			what, scalar.cycle, fast.cycle, scalar.cycle-fast.cycle)
	}
	if scalar.Ctr != fast.Ctr {
		t.Fatalf("%s: counters diverged\nscalar: %+v\nfast:   %+v", what, scalar.Ctr, fast.Ctr)
	}
	s, f := *scalar, *fast
	s.Mem, f.Mem = nil, nil
	if !reflect.DeepEqual(s, f) {
		t.Fatalf("%s: MSHR or branch predictor state diverged", what)
	}
	sm, fm := scalar.Mem, fast.Mem
	if sm.DRAMTraffic != fm.DRAMTraffic {
		t.Fatalf("%s: DRAM traffic diverged: %+v vs %+v", what, sm.DRAMTraffic, fm.DRAMTraffic)
	}
	if sm.L1c.Stats != fm.L1c.Stats || sm.L2c.Stats != fm.L2c.Stats || sm.LLCc.Stats != fm.LLCc.Stats {
		t.Fatalf("%s: cache stats diverged", what)
	}
}

// TestOpBufMatchesScalarCore issues identical op streams on a core one
// op at a time and through an OpBuf, calling Flush at several cadences;
// the cores must end bit-identical.
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
						scalar, fast := twinCores(mcfg)
						scalarFeed(scalar, ops)
						feed(fast, ops, cd.flushAt)
						checkSameCore(t, fmt.Sprintf("trial %d", trial), scalar, fast.Core)
					}
				})
			}
		})
	}
}

// TestOpBufFlushBoundaries interleaves AdvanceCycles and DrainMem
// barriers into the stream, as core.Machine does mid-phase (eviction
// stalls, BinFlush), and checks that every Flush cadence still matches
// the scalar reference.
func TestOpBufFlushBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, cd := range cadences(rng) {
		t.Run(cd.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				ops := withBarriers(rng, genOps(rng, 4000))
				scalar, fast := twinCores(mem.DefaultConfig())
				scalarFeed(scalar, ops)
				feed(fast, ops, cd.flushAt)
				checkSameCore(t, fmt.Sprintf("trial %d", trial), scalar, fast.Core)
			}
		})
	}
}

// TestOpBufZeroAllocSteadyState pins the per-op issue path at zero
// allocations.
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
		t.Fatalf("issue path allocates: %v allocs/op", allocs)
	}
}
