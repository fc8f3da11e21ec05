package cache

import (
	"testing"
	"testing/quick"

	"cobra/internal/stats"
)

func tiny(policy PolicyKind) *Cache {
	// 4 sets x 4 ways x 64B = 1 KiB.
	return New(Config{Name: "T", SizeB: 1024, Ways: 4, Policy: policy})
}

func TestGeometry(t *testing.T) {
	c := New(Config{Name: "L1", SizeB: 32 << 10, Ways: 8, Policy: BitPLRU})
	if c.Sets() != 64 {
		t.Fatalf("L1 sets = %d, want 64", c.Sets())
	}
	c2 := New(Config{Name: "LLC", SizeB: 2 << 20, Ways: 16, Policy: DRRIP})
	if c2.Sets() != 2048 {
		t.Fatalf("LLC sets = %d, want 2048", c2.Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets did not panic")
		}
	}()
	New(Config{Name: "bad", SizeB: 3 * 64 * 4, Ways: 4, Policy: BitPLRU})
}

// TestWideBitPLRUPanics pins the Bit-PLRU associativity cap: the
// policy keeps one 16-bit mask per set, so a wider level is a config
// error. Other policies accept the width.
func TestWideBitPLRUPanics(t *testing.T) {
	New(Config{Name: "L2", SizeB: 32 * 64 * 4, Ways: 16, Policy: BitPLRU})
	New(Config{Name: "wide", SizeB: 32 * 64 * 4, Ways: 32, Policy: TrueLRU})
	defer func() {
		if recover() == nil {
			t.Fatal("32-way Bit-PLRU did not panic")
		}
	}()
	New(Config{Name: "wide", SizeB: 32 * 64 * 4, Ways: 32, Policy: BitPLRU})
}

func TestHitAfterMiss(t *testing.T) {
	for _, p := range []PolicyKind{BitPLRU, TrueLRU, DRRIP, Random} {
		c := tiny(p)
		if hit, _, _ := c.Access(0x1000, false); hit {
			t.Fatalf("%v: cold access hit", p)
		}
		if hit, _, _ := c.Access(0x1000, false); !hit {
			t.Fatalf("%v: second access missed", p)
		}
		if hit, _, _ := c.Access(0x1004, false); !hit {
			t.Fatalf("%v: same-line access missed", p)
		}
		if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
			t.Fatalf("%v: stats = %+v", p, c.Stats)
		}
	}
}

func TestCapacityEviction(t *testing.T) {
	c := tiny(TrueLRU)
	// Fill one set (set 0) with 5 distinct lines mapping to it; the 5th fill
	// must evict the first.
	setStride := uint64(4 * LineSize) // 4 sets
	for i := uint64(0); i < 5; i++ {
		c.Access(i*setStride, false)
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats.Evictions)
	}
	if c.Probe(0) {
		t.Fatal("LRU should have evicted line 0")
	}
	if !c.Probe(4 * setStride) {
		t.Fatal("most recent fill should be resident")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := tiny(TrueLRU)
	setStride := uint64(4 * LineSize)
	c.Access(0, true) // dirty
	for i := uint64(1); i < 5; i++ {
		c.Access(i*setStride, false)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	c := tiny(TrueLRU)
	setStride := uint64(4 * LineSize)
	target := uint64(2*LineSize + 7) // set 2, offset 7
	c.Access(target, true)           // dirty, so its eviction reports the victim
	var victim uint64
	for i := uint64(1); i < 5; i++ {
		if _, v, dirty := c.Access(target+i*setStride, false); dirty {
			victim = v
		}
	}
	if victim != target&^uint64(LineSize-1) {
		t.Fatalf("victim addr = %#x, want %#x", victim, target&^uint64(LineSize-1))
	}
}

func TestReserveWaysShrinksCapacity(t *testing.T) {
	c := tiny(TrueLRU)
	if err := c.ReserveWays(2); err != nil {
		t.Fatal(err)
	}
	setStride := uint64(4 * LineSize)
	for i := uint64(0); i < 3; i++ {
		c.Access(i*setStride, false)
	}
	// Only 2 usable ways remain, so the 3rd fill evicts.
	if c.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 with 2 usable ways", c.Stats.Evictions)
	}
	if c.ReservedBytes() != 2*4*LineSize {
		t.Fatalf("ReservedBytes = %d", c.ReservedBytes())
	}
}

func TestReserveWaysRejectsFullReservation(t *testing.T) {
	c := tiny(BitPLRU)
	if err := c.ReserveWays(4); err == nil {
		t.Fatal("reserving every way should fail")
	}
	if err := c.ReserveWays(-1); err == nil {
		t.Fatal("negative reservation should fail")
	}
}

func TestReserveInvalidatesResidentLines(t *testing.T) {
	c := tiny(TrueLRU)
	c.Access(0, false) // lands in way 0 (first free)
	if err := c.ReserveWays(1); err != nil {
		t.Fatal(err)
	}
	if c.Probe(0) {
		t.Fatal("line in reserved way should be invalidated")
	}
}

func TestWriteNTBypassesAllocation(t *testing.T) {
	c := tiny(BitPLRU)
	if c.WriteNT(0x40) {
		t.Fatal("NT store to absent line hit")
	}
	if c.Probe(0x40) {
		t.Fatal("NT store must not allocate")
	}
	// But it updates in place when resident.
	c.Access(0x80, false)
	if !c.WriteNT(0x80) {
		t.Fatal("NT store to resident line should hit")
	}
}

func TestPrefetchInstallsQuietly(t *testing.T) {
	c := tiny(BitPLRU)
	misses := c.Stats.Misses
	if already := c.Prefetch(0x100); already {
		t.Fatal("prefetch of absent line reported present")
	}
	if c.Stats.Misses != misses {
		t.Fatal("prefetch counted a demand miss")
	}
	if hit, _, _ := c.Access(0x100, false); !hit {
		t.Fatal("demand access after prefetch should hit")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny(BitPLRU)
	c.Access(0x200, true)
	present, dirty := c.Invalidate(0x200)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Probe(0x200) {
		t.Fatal("line still resident after invalidate")
	}
	present, _ = c.Invalidate(0x200)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestFlushAllCountsDirty(t *testing.T) {
	c := tiny(BitPLRU)
	c.Access(0x000, true)
	c.Access(0x040, false)
	c.Access(0x080, true)
	if d := c.FlushAll(); d != 2 {
		t.Fatalf("FlushAll dirty = %d, want 2", d)
	}
	if c.OccupiedLines() != 0 {
		t.Fatal("lines remain after FlushAll")
	}
}

func TestBitPLRUPreservesHotLine(t *testing.T) {
	c := tiny(BitPLRU)
	setStride := uint64(4 * LineSize)
	hot := uint64(0)
	c.Access(hot, false)
	// Stream many conflicting lines, re-touching hot between fills.
	for i := uint64(1); i < 32; i++ {
		c.Access(hot, false)
		c.Access(i*setStride, false)
	}
	if !c.Probe(hot) {
		t.Fatal("Bit-PLRU evicted the constantly-touched line")
	}
}

func TestDRRIPScanResistance(t *testing.T) {
	// DRRIP should keep a reused working set resident through a one-pass
	// scan better than LRU does. Working set: 8 lines in one set of a
	// 16-way cache; scan: 64 single-use lines in the same set.
	mk := func(p PolicyKind) *Cache {
		return New(Config{Name: "t", SizeB: 16 * LineSize * 4, Ways: 16, Policy: p})
	}
	run := func(c *Cache) (missesAfterScan uint64) {
		setStride := uint64(4 * LineSize)
		work := make([]uint64, 8)
		for i := range work {
			work[i] = uint64(i) * setStride
		}
		// Establish reuse.
		for pass := 0; pass < 8; pass++ {
			for _, a := range work {
				c.Access(a, false)
			}
		}
		// One-pass scan of 64 cold lines.
		for i := 100; i < 164; i++ {
			c.Access(uint64(i)*setStride, false)
		}
		before := c.Stats.Misses
		for _, a := range work {
			c.Access(a, false)
		}
		return c.Stats.Misses - before
	}
	drripMisses := run(mk(DRRIP))
	lruMisses := run(mk(TrueLRU))
	if drripMisses > lruMisses {
		t.Fatalf("DRRIP (%d misses) should not be worse than LRU (%d) after a scan", drripMisses, lruMisses)
	}
}

func TestOccupancyNeverExceedsUsableWays(t *testing.T) {
	f := func(seed uint64, reserve uint8) bool {
		c := tiny(BitPLRU)
		res := int(reserve % 4)
		if err := c.ReserveWays(res); err != nil {
			return false
		}
		r := stats.NewRand(seed)
		for i := 0; i < 2000; i++ {
			c.Access(uint64(r.Intn(1<<14)), r.Intn(2) == 0)
		}
		// Per-set occupancy bound: usable ways only.
		perSet := make([]int, c.Sets())
		for s := 0; s < c.Sets(); s++ {
			for w := 0; w < c.Ways(); w++ {
				if c.lineValid(s*c.Ways() + w) {
					perSet[s]++
					if w < res {
						return false // reserved way got filled
					}
				}
			}
			if perSet[s] > c.UsableWays() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsConservation(t *testing.T) {
	// hits + misses == accesses, fills == misses (no bypass in Access).
	f := func(seed uint64) bool {
		c := tiny(DRRIP)
		r := stats.NewRand(seed)
		const n = 5000
		for i := 0; i < n; i++ {
			c.Access(uint64(r.Intn(1<<13)), r.Intn(3) == 0)
		}
		return c.Stats.Accesses() == n && c.Stats.Fills == c.Stats.Misses &&
			c.Stats.Writebacks <= c.Stats.Evictions && c.Stats.Evictions <= c.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedMetaRoundTrip(t *testing.T) {
	// The packed word must preserve tag, valid, and dirty independently.
	c := tiny(TrueLRU)
	addr := uint64(0x7FFC0) // high-ish tag
	c.Access(addr, true)
	line, _, base, want := c.locate(addr)
	w := c.find(line, base, want)
	if w < 0 {
		t.Fatal("line not found after fill")
	}
	i := base + w
	tag := addr >> (LineBits + c.setBits)
	if !c.lineValid(i) || !c.lineDirty(i) {
		t.Fatalf("valid/dirty bits lost: meta=%#x", c.meta[i])
	}
	if got := c.meta[i] >> metaTagShift; got != tag {
		t.Fatalf("tag round-trip: got %#x want %#x", got, tag)
	}
}

func TestMRUFilterNeverStale(t *testing.T) {
	// The location hints are hints: after invalidation or reservation of
	// a hinted line, or a fill of another line into the same hint slot,
	// probes must not report a stale hit.
	c := tiny(TrueLRU)
	c.Access(0x40, false)
	if !c.Probe(0x40) {
		t.Fatal("line absent after access")
	}
	c.Invalidate(0x40)
	if c.Probe(0x40) {
		t.Fatal("hint returned an invalidated line")
	}
	c.Access(0, false) // lands in way 0 (first free), hinted there
	if err := c.ReserveWays(1); err != nil {
		t.Fatal(err)
	}
	if c.Probe(0) {
		t.Fatal("hint returned a line in a reserved way")
	}
	// Lines 1 and 1+len(hints) share a hint slot and a set.
	a, b := uint64(LineSize), uint64(LineSize)*uint64(len(c.hints)+1)
	c.Access(a, false)
	c.Access(b, false)
	if !c.Probe(a) || !c.Probe(b) {
		t.Fatal("aliased lines not both resident")
	}
	c.Invalidate(b)
	if c.Probe(b) || !c.Probe(a) {
		t.Fatal("hint slot shared by two lines answered for the wrong one")
	}
	p := tiny(BitPLRU)
	p.Access(a, false)
	if _, ok := p.Hinted(b); ok {
		t.Fatal("Hinted verified another line's hint")
	}
	q := tiny(DRRIP)
	q.Access(a, false)
	if _, ok := q.Hinted(a); ok {
		t.Fatal("Hinted answered for a level that is not Bit-PLRU")
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := tiny(DRRIP)
	r := stats.NewRand(3)
	for i := 0; i < 500; i++ {
		c.Access(uint64(r.Intn(1<<13)), i&1 == 0)
	}
	if err := c.ReserveWays(1); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.OccupiedLines() != 0 {
		t.Fatal("lines survive Reset")
	}
	if c.Stats != (Stats{}) {
		t.Fatalf("stats survive Reset: %+v", c.Stats)
	}
	if c.ReservedWays() != 0 {
		t.Fatal("reservation survives Reset")
	}
	// A reset cache must replay a trace identically to a fresh one.
	fresh := tiny(DRRIP)
	ra, rb := stats.NewRand(9), stats.NewRand(9)
	for i := 0; i < 2000; i++ {
		c.Access(uint64(ra.Intn(1<<13)), i&3 == 0)
		fresh.Access(uint64(rb.Intn(1<<13)), i&3 == 0)
	}
	if c.Stats != fresh.Stats {
		t.Fatalf("reset cache diverges from fresh: %+v vs %+v", c.Stats, fresh.Stats)
	}
}

func TestResetAllPolicies(t *testing.T) {
	for _, p := range []PolicyKind{BitPLRU, TrueLRU, DRRIP, Random} {
		c := tiny(p)
		r := stats.NewRand(uint64(p) + 1)
		for i := 0; i < 1000; i++ {
			c.Access(uint64(r.Intn(1<<13)), false)
		}
		c.Reset()
		fresh := tiny(p)
		ra, rb := stats.NewRand(11), stats.NewRand(11)
		for i := 0; i < 1000; i++ {
			c.Access(uint64(ra.Intn(1<<13)), false)
			fresh.Access(uint64(rb.Intn(1<<13)), false)
		}
		if c.Stats != fresh.Stats {
			t.Fatalf("%v: reset cache diverges: %+v vs %+v", p, c.Stats, fresh.Stats)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[PolicyKind]string{BitPLRU: "Bit-PLRU", TrueLRU: "LRU", DRRIP: "DRRIP", Random: "Random"} {
		if p.String() != want {
			t.Errorf("String(%d) = %q", p, p.String())
		}
	}
}

func TestSmallCacheThrashes(t *testing.T) {
	// Sanity: a working set 4x the cache must show a high miss rate
	// under cyclic access with any policy.
	c := tiny(BitPLRU)
	lines := 4 * c.Sets() * c.Ways()
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*LineSize), false)
		}
	}
	if mr := c.Stats.MissRate(); mr < 0.5 {
		t.Fatalf("cyclic over-capacity miss rate = %.2f, want >= 0.5", mr)
	}
}

// agingVictim is the DRRIP victim search drrip.victim replaced, kept as
// its oracle: age every usable way by one until some way reaches RRPV
// 3, then take the first such way.
func agingVictim(rrpv []uint8, base, ways, minWay int) int {
	for {
		for w := minWay; w < ways; w++ {
			if rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := minWay; w < ways; w++ {
			if rrpv[base+w] < rrpvMax {
				rrpv[base+w]++
			}
		}
	}
}

// TestDRRIPVictimMatchesAgingLoop holds the one-pass victim to the
// aging loop over random RRPV rows (with and without a way at RRPV 3)
// at every way-reservation floor: the same victim and the same aged
// RRPVs, reserved ways untouched.
func TestDRRIPVictimMatchesAgingLoop(t *testing.T) {
	const sets, ways = 4, 16
	r := stats.NewRand(5)
	d := newDRRIP(sets, ways)
	for trial := 0; trial < 2000; trial++ {
		set := r.Intn(sets)
		top := uint64(rrpvMax + 1)
		if trial%2 == 0 {
			top = rrpvMax // no way at RRPV 3: the set must age
		}
		for i := range d.rrpv {
			d.rrpv[i] = uint8(r.Uint64n(top))
		}
		for minWay := 0; minWay < ways; minWay++ {
			want := append([]uint8(nil), d.rrpv...)
			wantWay := agingVictim(want, set*ways, ways, minWay)
			got := append([]uint8(nil), d.rrpv...)
			dd := &drrip{rrpv: got, ways: ways}
			if w := dd.victim(set, minWay); w != wantWay {
				t.Fatalf("trial %d, minWay %d: victim %d, aging loop %d (row %v)",
					trial, minWay, w, wantWay, d.rrpv[set*ways:(set+1)*ways])
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d, minWay %d: RRPVs %v after Victim, %v after the aging loop",
						trial, minWay, got[set*ways:(set+1)*ways], want[set*ways:(set+1)*ways])
				}
			}
		}
	}
}
