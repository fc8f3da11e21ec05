package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"cobra/internal/cpu"
	"cobra/internal/mem"
	"cobra/internal/stats"
)

func newMachine(t *testing.T, tupleBytes int, numIndices uint64) *Machine {
	t.Helper()
	h := mem.New(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), h)
	m := NewMachine(new(CBufStore), c, DefaultConfig(tupleBytes))
	if err := m.BinInit(numIndices); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBinInitHierarchyShape(t *testing.T) {
	m := newMachine(t, 8, 1<<22) // 4M indices, 8B tuples
	l1, l2, llc := m.LevelBufs()
	if !(l1 <= l2 && l2 <= llc) {
		t.Fatalf("C-Buffer counts not monotone: %d/%d/%d", l1, l2, llc)
	}
	// L1: 7 ways of 64 sets = 448 lines max.
	if l1 > 448 {
		t.Fatalf("L1 C-Buffers %d exceed reserved capacity", l1)
	}
	// L2: 1 way of 512 sets = 512 lines max.
	if l2 > 512 {
		t.Fatalf("L2 C-Buffers %d exceed reserved capacity", l2)
	}
	// LLC: 15 ways of 2048 sets = 30720 lines max.
	if llc > 30720 {
		t.Fatalf("LLC C-Buffers %d exceed reserved capacity", llc)
	}
	if m.NumBins() != llc {
		t.Fatal("in-memory bins != LLC C-Buffers")
	}
	// Bin ranges are powers of two (shift-indexed).
	if 1<<m.BinShiftLLC()*uint64(llc) < 1<<22 {
		t.Fatal("LLC bins do not cover the namespace")
	}
}

func TestBinInitSmallNamespaceUsesFewerWays(t *testing.T) {
	// 1000 indices fit in a handful of C-Buffers; bininit must release
	// unused reserved ways (§V-A).
	h := mem.New(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), h)
	m := NewMachine(new(CBufStore), c, DefaultConfig(8))
	if err := m.BinInit(1000); err != nil {
		t.Fatal(err)
	}
	l1, l2, llc := m.LevelBufs()
	if l1 > 448 || l2 > 512 || llc > 30720 {
		t.Fatal("buffer counts exceed capacity")
	}
	if h.L1c.ReservedWays() >= 8 {
		t.Fatal("L1 reservation left no usable way")
	}
	// With 1000 indices and >=448-line capacity the range can be small:
	// every level can afford range <= 4.
	if llc < 250 {
		t.Fatalf("LLC buffers = %d, want fine-grained bins for tiny namespace", llc)
	}
}

func TestBinInitRejectsZero(t *testing.T) {
	h := mem.New(mem.DefaultConfig())
	m := NewMachine(new(CBufStore), cpu.New(cpu.DefaultConfig(), h), DefaultConfig(8))
	if err := m.BinInit(0); err == nil {
		t.Fatal("BinInit(0) should fail")
	}
}

func TestBadTupleSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-divisor tuple size")
		}
	}()
	h := mem.New(mem.DefaultConfig())
	NewMachine(new(CBufStore), cpu.New(cpu.DefaultConfig(), h), DefaultConfig(7))
}

func TestBinUpdateBeforeInitPanics(t *testing.T) {
	h := mem.New(mem.DefaultConfig())
	m := NewMachine(new(CBufStore), cpu.New(cpu.DefaultConfig(), h), DefaultConfig(8))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for BinUpdate before BinInit")
		}
	}()
	m.BinUpdate(0, 0)
}

func TestTupleConservation(t *testing.T) {
	// Every binupdate'd tuple must reach exactly one in-memory bin, in
	// the right bin, after flush.
	const n = 1 << 16
	m := newMachine(t, 8, n)
	r := stats.NewRand(1)
	const updates = 200000
	want := make(map[uint64]int)
	for i := 0; i < updates; i++ {
		k := uint32(r.Intn(n))
		v := uint64(i)
		m.BinUpdate(k, v)
		want[uint64(k)<<32|v&0xffffffff]++
	}
	m.BinFlush()
	if m.ResidentTuples() != 0 {
		t.Fatalf("%d tuples still on chip after flush", m.ResidentTuples())
	}
	if got := m.TotalBinnedTuples(); got != updates {
		t.Fatalf("binned %d tuples, want %d", got, updates)
	}
	shift := m.BinShiftLLC()
	for id, bin := range m.Bins {
		for _, tp := range bin {
			if int(tp.Key>>shift) != id {
				t.Fatalf("tuple key %d in bin %d (shift %d)", tp.Key, id, shift)
			}
			want[uint64(tp.Key)<<32|tp.Val&0xffffffff]--
		}
	}
	for k, c := range want {
		if c != 0 {
			t.Fatalf("tuple %x count off by %d", k, c)
		}
	}
}

func TestTupleConservationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, tsel uint8) bool {
		n := uint64(nRaw%5000) + 64
		tupleBytes := []int{4, 8, 16}[tsel%3]
		h := mem.New(mem.DefaultConfig())
		m := NewMachine(new(CBufStore), cpu.New(cpu.DefaultConfig(), h), DefaultConfig(tupleBytes))
		if err := m.BinInit(n); err != nil {
			return false
		}
		r := stats.NewRand(seed)
		const updates = 5000
		for i := 0; i < updates; i++ {
			m.BinUpdate(uint32(r.Uint64n(n)), uint64(i))
		}
		m.BinFlush()
		return m.ResidentTuples() == 0 && m.TotalBinnedTuples() == updates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyOutOfRangePanics(t *testing.T) {
	m := newMachine(t, 8, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range key")
		}
	}()
	m.BinUpdate(100, 0)
}

func TestPerChunkOrderWithinBin(t *testing.T) {
	// COBRA preserves arrival order per key range... more precisely,
	// tuples of one key arrive in bins in production order (FIFO through
	// the hierarchy) — required for non-commutative correctness.
	m := newMachine(t, 8, 1024)
	for i := 0; i < 5000; i++ {
		m.BinUpdate(uint32(i%1024), uint64(i))
	}
	m.BinFlush()
	seen := make(map[uint32]uint64)
	for _, bin := range m.Bins {
		for _, tp := range bin {
			if last, ok := seen[tp.Key]; ok && tp.Val <= last {
				t.Fatalf("key %d: tuple %d arrived after %d", tp.Key, tp.Val, last)
			}
			seen[tp.Key] = tp.Val
		}
	}
}

func TestEvictionBufferStalls(t *testing.T) {
	// A tiny eviction buffer under a dense burst must stall; the default
	// 32-entry buffer must stall far less (Figure 13a's shape).
	run := func(entries int) float64 {
		h := mem.New(mem.DefaultConfig())
		c := cpu.New(cpu.DefaultConfig(), h)
		cfg := DefaultConfig(4) // 16 tuples/line -> heavy engine load
		cfg.EvictBufL1L2 = entries
		m := NewMachine(new(CBufStore), c, cfg)
		if err := m.BinInit(1 << 20); err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(3)
		for i := 0; i < 300000; i++ {
			// back-to-back binupdates, no other work: worst-case burst
			m.BinUpdate(uint32(r.Uint64n(1<<20)), 1)
		}
		stalls, _ := m.EvictionStalls()
		return stalls
	}
	small := run(1)
	big := run(64)
	if small <= big {
		t.Fatalf("1-entry buffer stalled %.0f cycles, 64-entry %.0f; want small >> big", small, big)
	}
	if small == 0 {
		t.Fatal("worst-case burst produced zero stalls with a 1-entry buffer")
	}
}

func TestCoalescingReducesTraffic(t *testing.T) {
	// COBRA-COMM on a highly skewed stream must write fewer tuples to
	// memory than plain COBRA (Figure 14a's mechanism).
	run := func(coalesce bool) (tuples int, memBytes uint64) {
		h := mem.New(mem.DefaultConfig())
		c := cpu.New(cpu.DefaultConfig(), h)
		cfg := DefaultConfig(8)
		cfg.Coalesce = coalesce
		m := NewMachine(new(CBufStore), c, cfg)
		if err := m.BinInit(1 << 16); err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(5)
		for i := 0; i < 200000; i++ {
			// Zipf-ish: 80% of updates to 1% of keys.
			var k uint32
			if r.Float64() < 0.8 {
				k = uint32(r.Uint64n(655))
			} else {
				k = uint32(r.Uint64n(1 << 16))
			}
			m.BinUpdate(k, 1)
		}
		m.BinFlush()
		return m.TotalBinnedTuples(), m.St.MemWriteBytes
	}
	plainTuples, plainBytes := run(false)
	commTuples, commBytes := run(true)
	if plainTuples != 200000 {
		t.Fatalf("plain COBRA lost tuples: %d", plainTuples)
	}
	if commTuples >= plainTuples {
		t.Fatalf("coalescing did not reduce tuples: %d vs %d", commTuples, plainTuples)
	}
	if commBytes >= plainBytes {
		t.Fatalf("coalescing did not reduce traffic: %d vs %d", commBytes, plainBytes)
	}
}

func TestCoalescedSumsPreserved(t *testing.T) {
	// With add-coalescing, per-key value sums must be exact.
	h := mem.New(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), h)
	cfg := DefaultConfig(8)
	cfg.Coalesce = true
	m := NewMachine(new(CBufStore), c, cfg)
	const n = 4096
	if err := m.BinInit(n); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, n)
	r := stats.NewRand(7)
	for i := 0; i < 100000; i++ {
		k := uint32(r.Uint64n(n))
		v := uint64(r.Intn(10))
		m.BinUpdate(k, v)
		want[k] += v
	}
	m.BinFlush()
	got := make([]uint64, n)
	for _, bin := range m.Bins {
		for _, tp := range bin {
			got[tp.Key] += tp.Val
		}
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("key %d: sum %d, want %d", k, got[k], want[k])
		}
	}
}

func TestContextSwitchWaste(t *testing.T) {
	run := func(quantum float64) uint64 {
		h := mem.New(mem.DefaultConfig())
		c := cpu.New(cpu.DefaultConfig(), h)
		cfg := DefaultConfig(8)
		cfg.CtxSwitchQuantum = quantum
		m := NewMachine(new(CBufStore), c, cfg)
		if err := m.BinInit(1 << 18); err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(9)
		for i := 0; i < 300000; i++ {
			m.BinUpdate(uint32(r.Uint64n(1<<18)), 1)
		}
		m.BinFlush()
		return m.St.CtxWasteBytes
	}
	frequent := run(5000)
	rare := run(10e6)
	if frequent <= rare {
		t.Fatalf("frequent preemption wasted %d B, rare %d B; want frequent > rare", frequent, rare)
	}
}

func TestBinUpdateChargesOneInstruction(t *testing.T) {
	m := newMachine(t, 8, 1<<16)
	before := m.CPU.Ctr.Instructions
	m.BinUpdate(1, 2)
	if d := m.CPU.Ctr.Instructions - before; d != 1 {
		t.Fatalf("binupdate charged %d instructions, want 1", d)
	}
}

func TestFlushIdempotent(t *testing.T) {
	m := newMachine(t, 8, 1<<12)
	for i := 0; i < 100; i++ {
		m.BinUpdate(uint32(i%100), uint64(i))
	}
	m.BinFlush()
	n := m.TotalBinnedTuples()
	m.BinFlush()
	if m.TotalBinnedTuples() != n {
		t.Fatal("second flush changed bins")
	}
}

func TestStatsAccounting(t *testing.T) {
	m := newMachine(t, 8, 1<<16)
	r := stats.NewRand(11)
	const updates = 50000
	for i := 0; i < updates; i++ {
		m.BinUpdate(uint32(r.Uint64n(1<<16)), 1)
	}
	m.BinFlush()
	if m.St.BinUpdates != updates {
		t.Fatalf("BinUpdates = %d", m.St.BinUpdates)
	}
	if m.St.MemWriteBytes == 0 || m.St.LLCEvictions == 0 && m.St.FlushLines == 0 {
		t.Fatalf("stats = %+v", m.St)
	}
	// All tuples written as lines: bytes >= tuples*8.
	if m.St.MemWriteBytes < uint64(updates)*8 {
		t.Fatalf("MemWriteBytes %d below tuple payload", m.St.MemWriteBytes)
	}
}

func TestNoPartitionCBufMissRate(t *testing.T) {
	// §V-E: without static partitioning, C-Buffer inserts should still
	// mostly hit in L1 because only ~256 hot buffer lines compete with
	// streaming data (which Bit-PLRU cycles through one way).
	h := mem.New(mem.DefaultConfig())
	c := cpu.New(cpu.DefaultConfig(), h)
	cfg := DefaultConfig(8)
	cfg.NoPartition = true
	m := NewMachine(new(CBufStore), c, cfg)
	if err := m.BinInit(1 << 20); err != nil {
		t.Fatal(err)
	}
	if h.L1c.ReservedWays() != 0 {
		t.Fatal("NoPartition must not reserve ways")
	}
	r := stats.NewRand(3)
	var streamAddr uint64 = 1 << 30
	for i := 0; i < 200000; i++ {
		// Interleave streaming input loads with binupdates, as Binning does.
		m.CPU.Load(streamAddr)
		streamAddr += 8
		m.BinUpdate(uint32(r.Uint64n(1<<20)), 1)
	}
	if m.St.CBufAccesses == 0 {
		t.Fatal("no C-Buffer accesses tracked")
	}
	if rate := m.St.CBufMissRate(); rate > 0.02 {
		t.Fatalf("unpartitioned C-Buffer miss rate %.4f, paper claims <1%%", rate)
	}
}

func TestPartitionedModeTracksNoCBufStats(t *testing.T) {
	m := newMachine(t, 8, 1<<16)
	m.BinUpdate(1, 1)
	if m.St.CBufAccesses != 0 {
		t.Fatal("partitioned mode should not track C-Buffer accesses")
	}
	var zero Stats
	if zero.CBufMissRate() != 0 {
		t.Fatal("zero stats miss rate should be 0")
	}
}

// TestBatchedMachineMatchesOpAtATime drives a Binning loop — a stream
// load, a loop branch and a binupdate per tuple, as the COBRA runner
// does — through a machine on a fresh hierarchy and through one on a
// hierarchy that a different loop dirtied and Reset then restored, as a
// pooled machine is. The two must be indistinguishable: same bins,
// stats, clock, counters and memory activity, for every configuration
// that reads the clock or the hierarchy mid-stream: the way reservation
// BinInit makes after the levels have recorded location hints (on the
// reset side, also stale hints of the earlier loop), the NoPartition
// insert's store, the context-switch check and the eviction buffer.
// (The name is the one the test had when one side batched its
// micro-ops and the other retired them one at a time.)
func TestBatchedMachineMatchesOpAtATime(t *testing.T) {
	cfgs := map[string]func(*Config){
		"default":     func(*Config) {},
		"coalesce":    func(c *Config) { c.Coalesce = true },
		"nopartition": func(c *Config) { c.NoPartition = true },
		"quantum":     func(c *Config) { c.CtxSwitchQuantum = 5000 },
		"evictbuf2":   func(c *Config) { c.EvictBufL1L2 = 2 },
	}
	for name, tweak := range cfgs {
		t.Run(name, func(t *testing.T) {
			run := func(reused bool) (*Machine, *cpu.Core) {
				h := mem.New(mem.DefaultConfig())
				if reused {
					r := stats.NewRand(3)
					for i := 0; i < 20000; i++ {
						region := [2]uint64{1 << 32, 1 << 40}[r.Intn(2)] // input, C-Buffers
						h.Access(region+r.Uint64n(1<<20), mem.RefKind(r.Intn(3)))
					}
					h.Reset()
				}
				c := cpu.New(cpu.DefaultConfig(), h)
				cfg := DefaultConfig(4)
				tweak(&cfg)
				m := NewMachine(new(CBufStore), c, cfg)
				// Lines the levels hold hints for when BinInit
				// reserves ways: the reservation drops some of them.
				input := uint64(1 << 32)
				for i := uint64(0); i < 64; i++ {
					c.Load(input + i*64)
				}
				const n = 1 << 16
				if err := m.BinInit(n); err != nil {
					t.Fatal(err)
				}
				r := stats.NewRand(17)
				for i := 0; i < 60000; i++ {
					k := uint32(r.Uint64n(n))
					if r.Float64() < 0.5 {
						k %= 512 // a hot key range, so coalescing fires
					}
					c.Load(input + uint64(i)*8)
					c.Branch(0x100, r.Intn(8) != 0)
					m.BinUpdate(k, uint64(i))
				}
				m.BinFlush()
				return m, c
			}
			fresh, fc := run(false)
			reused, oc := run(true)
			if !reflect.DeepEqual(fresh.Bins, reused.Bins) {
				t.Error("bins diverge")
			}
			if fresh.St != reused.St {
				t.Errorf("stats diverge\nfresh:  %+v\nreused: %+v", fresh.St, reused.St)
			}
			if fc.Cycles() != oc.Cycles() || fc.Ctr != oc.Ctr {
				t.Errorf("core diverges: cycles %v vs %v\nfresh:  %+v\nreused: %+v", fc.Cycles(), oc.Cycles(), fc.Ctr, oc.Ctr)
			}
			fm, om := fc.Mem, oc.Mem
			if fm.DRAMTraffic != om.DRAMTraffic || fm.L1c.Stats != om.L1c.Stats ||
				fm.L2c.Stats != om.L2c.Stats || fm.LLCc.Stats != om.LLCc.Stats {
				t.Error("memory activity diverges")
			}
			if name == "evictbuf2" && fresh.St.StallCycles == 0 {
				t.Error("a 2-line eviction buffer never stalled; the test exercises nothing")
			}
			if name == "quantum" && fresh.St.CtxSwitches == 0 {
				t.Error("no context switch fired; the test exercises nothing")
			}
		})
	}
}

// TestReusedStoreEqualsNew: a machine on a store a larger run filled
// (C-Buffers left unflushed), handed that run's full bin headers,
// bins exactly as one on a new store — the same bins and the same
// Stats.
func TestReusedStoreEqualsNew(t *testing.T) {
	run := func(st *CBufStore, bins [][]Tuple, n uint64, seed uint64, updates int, flush bool) *Machine {
		m := NewMachine(st, cpu.New(cpu.DefaultConfig(), mem.New(mem.DefaultConfig())), DefaultConfig(8))
		m.Bins = bins
		if err := m.BinInit(n); err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(seed)
		for i := 0; i < updates; i++ {
			m.BinUpdate(uint32(r.Uint64n(n)), uint64(i))
		}
		if flush {
			m.BinFlush()
		}
		return m
	}
	st := new(CBufStore)
	stale := run(st, nil, 1<<16, 1, 200000, false).Bins
	for _, n := range []uint64{1 << 16, 5000} {
		fresh, reused := run(new(CBufStore), nil, n, 2, 50000, true), run(st, stale, n, 2, 50000, true)
		if &reused.Bins[0] != &stale[0] {
			t.Fatalf("n=%d: BinInit did not reuse the bin headers it was handed", n)
		}
		if !reflect.DeepEqual(fresh.Bins, reused.Bins) {
			t.Fatalf("n=%d: bins on a reused store differ from a new one's", n)
		}
		if fresh.St != reused.St {
			t.Fatalf("n=%d: stats %+v on a reused store, %+v on a new one", n, reused.St, fresh.St)
		}
	}
}
