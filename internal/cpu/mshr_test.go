package cpu

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"cobra/internal/mem"
)

// slotMSHRs is the slot-scan MSHR model that Core's allocation-order
// queue replaced, kept as its reference: issue and completion cycle per
// MSHR slot, doneAt == 0 marking a free one, and busy mirroring doneAt
// (bit i set ⇔ doneAt[i] != 0) so the scans touch only live slots. It
// holds at most 64 slots, the mask's width.
type slotMSHRs struct {
	issueAt []float64
	doneAt  []float64
	busy    uint64
}

// occupy is the slot model's MSHR allocation on c's clock: retire the
// completed slots, wait out the ROB runway past the oldest outstanding
// miss, take the first free slot or stall until the earliest
// completion, and return the new miss's completion time.
func (s *slotMSHRs) occupy(c *Core, lat float64) float64 {
	doneAt := s.doneAt
	issueAt := s.issueAt
	busy := s.busy
	oldest := -1
	var oldestIssue float64
	for m := busy; m != 0; {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if doneAt[i] <= c.cycle {
			doneAt[i] = 0
			busy &^= 1 << uint(i)
			continue
		}
		if oldest < 0 || issueAt[i] < oldestIssue {
			oldest = i
			oldestIssue = issueAt[i]
		}
	}
	for oldest >= 0 && c.cycle > oldestIssue+c.runway {
		if doneAt[oldest] > c.cycle {
			c.cycle = doneAt[oldest]
		}
		doneAt[oldest] = 0
		busy &^= 1 << uint(oldest)
		oldest = -1
		for m := busy; m != 0; {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			if oldest < 0 || issueAt[i] < oldestIssue {
				oldest = i
				oldestIssue = issueAt[i]
			}
		}
	}
	slot := bits.TrailingZeros64(^busy)
	if slot >= len(doneAt) {
		earliest := 0
		for i := range doneAt {
			if doneAt[i] < doneAt[earliest] {
				earliest = i
			}
		}
		c.cycle = doneAt[earliest]
		slot = earliest
	}
	issueAt[slot] = c.cycle
	done := c.cycle + lat
	doneAt[slot] = done
	s.busy = busy | 1<<uint(slot)
	return done
}

// slotCore is a Core whose misses go through the slot model: the
// methods that allocate an MSHR or drain them are its own, copies of
// Core's with the MSHR step swapped; the rest are Core's.
type slotCore struct {
	*Core
	m slotMSHRs
}

func newSlotCore(cfg Config, h *mem.Hierarchy) *slotCore {
	return &slotCore{
		Core: New(cfg, h),
		m:    slotMSHRs{issueAt: make([]float64, cfg.MSHRs), doneAt: make([]float64, cfg.MSHRs)},
	}
}

func (s *slotCore) occupy(lat float64) float64 { return s.m.occupy(s.Core, lat) }

func (s *slotCore) load(addr uint64) float64 {
	c := s.Core
	c.Ctr.Loads++
	c.issue(1)
	level := c.Mem.Access(addr, mem.RefLoad)
	if level == mem.L1 {
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
		lat += c.Mem.LLCExtraCycles(addr)
	}
	return s.occupy(float64(lat))
}

func (s *slotCore) Load(addr uint64) { s.load(addr) }

func (s *slotCore) LoadDep(addr uint64) {
	if done := s.load(addr); done > s.cycle {
		s.cycle = done
	}
}

func (s *slotCore) Store(addr uint64) {
	c := s.Core
	c.Ctr.Stores++
	c.issue(1)
	if level := c.Mem.Access(addr, mem.RefStore); level != mem.L1 {
		s.occupy(float64(c.lat[level]) / 2)
	}
}

func (s *slotCore) DrainMem() {
	for i := range s.m.doneAt {
		if s.m.doneAt[i] > s.cycle {
			s.cycle = s.m.doneAt[i]
		}
		s.m.doneAt[i] = 0
	}
	s.m.busy = 0
}

// missLat are the latencies an opMiss allocates with: the Table II
// store (half) and load latencies of L2, the LLC and DRAM.
var missLat = [...]float64{4, 8, 10.5, 21, 106, 212}

// genMissOps produces a miss-bound op stream: DRAM-latency loads,
// dependent loads and stores over a space far beyond the LLC; bursts of
// independent loads past the MSHR count (full-MSHR stalls); ALU runs
// longer than the ROB runway (ROB-bound drains); and runs of direct
// MSHR allocations at one cycle with equal latencies (equal issue and
// completion times), plus barriers.
func genMissOps(rng *rand.Rand, n int) []op {
	ops := make([]op, 0, n)
	far := func() uint64 { return rng.Uint64() % (1 << 34) }
	for len(ops) < n {
		switch rng.Intn(9) {
		case 0:
			ops = append(ops, op{addr: far(), kind: opLoad})
		case 1:
			ops = append(ops, op{addr: far(), kind: opLoadDep})
		case 2:
			ops = append(ops, op{addr: far(), kind: opStore})
		case 3: // a burst past the MSHR count
			for k := 12 + rng.Intn(12); k > 0; k-- {
				ops = append(ops, op{addr: far(), kind: opLoad})
			}
		case 4: // past the 32-cycle ROB runway
			ops = append(ops, op{addr: uint64(100 + rng.Intn(300)), kind: opALU})
		case 5:
			ops = append(ops, op{addr: uint64(1 + rng.Intn(8)), kind: opALU})
		case 6: // equal issue and, pairwise, equal completion times
			lat := uint64(rng.Intn(len(missLat)))
			for k := 1 + rng.Intn(4); k > 0; k-- {
				ops = append(ops, op{addr: lat, kind: opMiss}, op{addr: uint64(rng.Intn(len(missLat))), kind: opMiss})
			}
		case 7:
			ops = append(ops, op{addr: uint64(1 + rng.Intn(300)), kind: opAdvance})
		default:
			ops = append(ops, op{kind: opDrain})
		}
	}
	return ops[:n]
}

// mshrConfigs are the core shapes the MSHR models are compared on:
// Table II, one MSHR, few MSHRs behind a short ROB, and the slot
// model's widest.
func mshrConfigs() map[string]Config {
	cfgs := map[string]Config{"tableII": DefaultConfig()}
	one := DefaultConfig()
	one.MSHRs = 1
	cfgs["mshr1"] = one
	short := DefaultConfig()
	short.MSHRs, short.ROB = 3, 16
	cfgs["mshr3_rob16"] = short
	wide := DefaultConfig()
	wide.MSHRs, wide.ROB = 64, 512
	cfgs["mshr64_rob512"] = wide
	return cfgs
}

// checkMSHRModels issues ops on a core and on a slot-model core over
// twin hierarchies of mcfg, comparing the clocks after every op and the
// counters at the end.
func checkMSHRModels(t *testing.T, what string, cfg Config, mcfg mem.Config, ops []op) {
	t.Helper()
	q, s := New(cfg, mem.New(mcfg)), newSlotCore(cfg, mem.New(mcfg))
	for i, o := range ops {
		apply(q, o)
		apply(s, o)
		if q.Cycles() != s.Cycles() {
			t.Fatalf("%s: op %d (%+v): queue clock %v, slot model %v", what, i, o, q.Cycles(), s.Cycles())
		}
	}
	q.DrainMem()
	s.DrainMem()
	if q.Cycles() != s.Cycles() || q.Ctr != s.Ctr {
		t.Fatalf("%s: after the final drain: queue %v %+v, slot model %v %+v", what, q.Cycles(), q.Ctr, s.Cycles(), s.Ctr)
	}
}

// TestMSHRQueueMatchesSlotModel replays random op streams (genOps,
// with barriers) and miss-bound ones (genMissOps) through Core and the
// slot-model reference on every core shape of mshrConfigs; the clocks
// must agree bit for bit after every op.
func TestMSHRQueueMatchesSlotModel(t *testing.T) {
	mcfg := mem.DefaultConfig()
	for name, cfg := range mshrConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 3; trial++ {
				checkMSHRModels(t, fmt.Sprintf("genOps trial %d", trial), cfg, mcfg,
					withBarriers(rng, genOps(rng, 4000)))
				checkMSHRModels(t, fmt.Sprintf("genMissOps trial %d", trial), cfg, mcfg,
					genMissOps(rng, 4000))
			}
		})
	}
}

// TestMSHRRingGrows drives a core whose allocation ring starts smaller
// than the live misses it must hold (a direct allocation per op, with
// no issue slot between them, is more than the ring's bound assumes):
// the ring grows and the clock still matches the slot model.
func TestMSHRRingGrows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs, cfg.ROB = 64, 4
	var ops []op
	for i := 0; i < 60; i++ {
		ops = append(ops, op{addr: 5, kind: opMiss})
	}
	q := New(cfg, mem.New(mem.DefaultConfig()))
	for _, o := range ops {
		apply(q, o)
	}
	if len(q.ring) <= ringSize(cfg) {
		t.Fatalf("ring of %d entries after %d live misses; the test no longer grows it", len(q.ring), len(ops))
	}
	checkMSHRModels(t, "growing ring", cfg, mem.DefaultConfig(), ops)
}

// FuzzMSHR holds Core's MSHR queue to the slot model on fuzzer-chosen
// miss-bound op streams: each byte picks an op (low three bits) and
// its parameter (the rest), over every core shape of mshrConfigs.
func FuzzMSHR(f *testing.F) {
	f.Add([]byte{0, 8, 16, 1, 9, 17, 3, 11, 19, 27, 5, 6, 6, 14, 7})
	f.Add([]byte{6, 6, 6, 6, 14, 14, 22, 22, 30, 38, 46, 4, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<12 {
			t.Skip()
		}
		ops := make([]op, 0, len(raw))
		for _, b := range raw {
			arg := uint64(b >> 3)
			switch b & 7 {
			case 0:
				ops = append(ops, op{addr: arg << 28, kind: opLoad})
			case 1:
				ops = append(ops, op{addr: arg << 28, kind: opLoadDep})
			case 2:
				ops = append(ops, op{addr: arg << 28, kind: opStore})
			case 3:
				ops = append(ops, op{addr: arg << 6, kind: opLoad}) // L1/L2-near
			case 4:
				ops = append(ops, op{addr: 1 + arg*8, kind: opALU})
			case 5:
				ops = append(ops, op{addr: arg, kind: opAdvance})
			case 6:
				ops = append(ops, op{addr: arg, kind: opMiss})
			default:
				ops = append(ops, op{kind: opDrain})
			}
		}
		for name, cfg := range mshrConfigs() {
			checkMSHRModels(t, name, cfg, mem.DefaultConfig(), ops)
		}
	})
}

// BenchmarkCoreMissBound measures the issue path on a miss-bound
// stream (genMissOps: DRAM loads, dependent loads, stores,
// MSHR-saturating bursts, long ALU runs, direct MSHR allocations and
// barriers), per op.
func BenchmarkCoreMissBound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := genMissOps(rng, 1<<14)
	c := New(DefaultConfig(), mem.New(mem.DefaultConfig()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range ops {
			apply(c, o)
		}
	}
	b.SetBytes(int64(len(ops)))
}
