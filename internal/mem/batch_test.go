package mem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cobra/internal/cache"
)

// tinyConfig is a hierarchy of 1 KB / 2 KB / 4 KB levels: conflict
// misses, evictions and writebacks on almost every reference, so
// location hints go stale all the time.
func tinyConfig() Config {
	return Config{
		L1:  cache.Config{Name: "L1", SizeB: 1 << 10, Ways: 2, Policy: cache.BitPLRU},
		L2:  cache.Config{Name: "L2", SizeB: 2 << 10, Ways: 2, Policy: cache.BitPLRU},
		LLC: cache.Config{Name: "LLC", SizeB: 4 << 10, Ways: 4, Policy: cache.DRRIP},
		Lat: DefaultLatencies(),
	}
}

// batchConfigs returns hierarchy configurations spanning the fast walk
// (mask Bit-PLRU L1 and L2, DRRIP LLC), the scalar fallback (TrueLRU
// L1 or L2; TrueLRU or Random LLC, ablation A2), tiny caches (high
// conflict pressure), NUCA on/off, and prefetcher on/off.
func batchConfigs() map[string]Config {
	tiny := tinyConfig()
	nuca := DefaultConfig()
	nuca.NUCA = DefaultNUCA()
	noPf := DefaultConfig()
	noPf.PrefetchStreams = 0
	noPf.PrefetchDegree = 0
	lruL1 := DefaultConfig()
	lruL1.L1.Policy = cache.TrueLRU
	lruL2 := DefaultConfig()
	lruL2.L2.Policy = cache.TrueLRU
	lruLLC := DefaultConfig()
	lruLLC.LLC.Policy = cache.TrueLRU
	randomLLC := DefaultConfig()
	randomLLC.LLC.Policy = cache.Random
	tinyPf := tiny
	tinyPf.PrefetchStreams = 4
	tinyPf.PrefetchDegree = 2
	return map[string]Config{
		"default":    DefaultConfig(),
		"tiny":       tiny,
		"tiny_pf":    tinyPf,
		"nuca":       nuca,
		"no_pf":      noPf,
		"lru_l1":     lruL1,
		"lru_l2":     lruL2,
		"lru_llc":    lruLLC,
		"random_llc": randomLLC,
		"reserved":   DefaultConfig(), // ways reserved by the test body
	}
}

// scalarRef resolves r through the scalar oracle API.
func scalarRef(h *Hierarchy, r Ref) Level {
	switch r.Kind {
	case RefStore:
		return h.Store(r.Addr)
	case RefStoreNT:
		return h.StoreNT(r.Addr)
	default:
		return h.Load(r.Addr)
	}
}

// replayScalar drives the scalar oracle API.
func replayScalar(h *Hierarchy, refs []Ref) []Level {
	out := make([]Level, len(refs))
	for i, r := range refs {
		out[i] = scalarRef(h, r)
	}
	return out
}

// snapshot captures a hierarchy's simulated state: every counter, the
// DRAM traffic, each level's packed line metadata (tags, valid and dirty
// bits, way by way), the L1 and L2 Bit-PLRU masks, and the LLC's DRRIP
// state (RRPVs, PSEL, BRRIP insert count). A wrong victim or a missed
// replacement update shows up here at once, not only when it happens
// to change a count or a later victim.
type snapshot struct {
	L1, L2, LLC cache.Stats
	Traffic     Traffic
	Meta        [3][]uint64 // L1, L2, LLC
	PLRU        [2][]uint16 // L1, L2 (nil when not mask Bit-PLRU)
	RRIP        cache.RRIP  // the LLC's (zero when not DRRIP)
}

func snap(h *Hierarchy) snapshot {
	s := snapshot{L1: h.L1c.Stats, L2: h.L2c.Stats, LLC: h.LLCc.Stats, Traffic: h.DRAMTraffic}
	for i, c := range []*cache.Cache{h.L1c, h.L2c, h.LLCc} {
		v := c.BatchView()
		s.Meta[i] = append([]uint64(nil), v.Meta...)
		if i < len(s.PLRU) && v.PLRU != nil {
			s.PLRU[i] = append([]uint16(nil), v.PLRU...)
		}
	}
	if r := h.LLCc.BatchView().RRIP; r != nil {
		s.RRIP = cache.RRIP{RRPV: append([]uint8(nil), r.RRPV...), PSEL: r.PSEL, BRRIP: r.BRRIP}
	}
	return s
}

// checkSameState fails unless the two hierarchies' snapshots are equal,
// naming the first part that differs.
func checkSameState(t *testing.T, what string, scalar, fast *Hierarchy) {
	t.Helper()
	s, b := snap(scalar), snap(fast)
	if s.L1 != b.L1 || s.L2 != b.L2 || s.LLC != b.LLC || s.Traffic != b.Traffic {
		t.Fatalf("%s: counters diverged\nscalar: %+v %+v %+v %+v\nfast:   %+v %+v %+v %+v",
			what, s.L1, s.L2, s.LLC, s.Traffic, b.L1, b.L2, b.LLC, b.Traffic)
	}
	for i, name := range []string{"L1", "L2", "LLC"} {
		if !reflect.DeepEqual(s.Meta[i], b.Meta[i]) {
			t.Fatalf("%s: %s line metadata diverged", what, name)
		}
		if i < len(s.PLRU) && !reflect.DeepEqual(s.PLRU[i], b.PLRU[i]) {
			t.Fatalf("%s: %s Bit-PLRU masks diverged", what, name)
		}
	}
	if !reflect.DeepEqual(s.RRIP, b.RRIP) {
		t.Fatalf("%s: LLC DRRIP state diverged (PSEL %d vs %d, BRRIP %d vs %d)",
			what, s.RRIP.PSEL, b.RRIP.PSEL, s.RRIP.BRRIP, b.RRIP.BRRIP)
	}
}

// genRefs builds a stream mixing streaming runs, same-line bursts
// (the coalescing cases), pointer-chasing randomness, and NT stores.
func genRefs(rng *rand.Rand, n int, addrSpace uint64) []Ref {
	refs := make([]Ref, 0, n)
	for len(refs) < n {
		addr := rng.Uint64() % addrSpace
		kind := RefKind(rng.Intn(3))
		run := 1
		switch rng.Intn(4) {
		case 0: // same-line burst: consecutive refs within one line
			run = 1 + rng.Intn(6)
		case 1: // short sequential run feeding the prefetcher
			run = 1 + rng.Intn(8)
		}
		for j := 0; j < run && len(refs) < n; j++ {
			a := addr
			if rng.Intn(4) == 1 {
				a = addr + uint64(j)*cache.LineSize
			} else {
				a = addr + uint64(rng.Intn(cache.LineSize))
			}
			k := kind
			if rng.Intn(3) == 0 {
				k = RefKind(rng.Intn(3))
			}
			refs = append(refs, Ref{Addr: a, Kind: k})
		}
	}
	return refs[:n]
}

// TestAccessBatchMatchesScalar replays identical random streams through
// AccessBatch (the fast walk, a reference at a time) and the scalar API
// on twin hierarchies and requires every counter, residency count, and
// returned level to be bit-identical.
func TestAccessBatchMatchesScalar(t *testing.T) {
	for name, cfg := range batchConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 8; trial++ {
				scalar := New(cfg)
				batched := New(cfg)
				if name == "reserved" {
					for _, h := range []*Hierarchy{scalar, batched} {
						if err := h.L1c.ReserveWays(2); err != nil {
							t.Fatal(err)
						}
						if err := h.L2c.ReserveWays(3); err != nil {
							t.Fatal(err)
						}
						if err := h.LLCc.ReserveWays(4); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Vary batch sizes: the walk's hints outlive each call.
				refs := genRefs(rng, 2000+rng.Intn(1000), 1<<uint(14+trial))
				want := replayScalar(scalar, refs)
				var got []Level
				var buf []Level
				for off := 0; off < len(refs); {
					sz := 1 + rng.Intn(97)
					if off+sz > len(refs) {
						sz = len(refs) - off
					}
					buf = batched.AccessBatch(refs[off:off+sz], buf)
					got = append(got, buf...)
					off += sz
				}
				if !reflect.DeepEqual(want, got) {
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("trial %d: level mismatch at ref %d (%+v): scalar=%v batched=%v",
								trial, i, refs[i], want[i], got[i])
						}
					}
				}
				checkSameState(t, fmt.Sprintf("trial %d", trial), scalar, batched)
			}
		})
	}
}

// TestAccessBatchInterleavedWithScalar checks the handoff points: a
// hierarchy may freely alternate between fast-walk and scalar calls.
func TestAccessBatchInterleavedWithScalar(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	oracle := New(cfg)
	mixed := New(cfg)
	refs := genRefs(rng, 4000, 1<<18)
	want := replayScalar(oracle, refs)
	var got, buf []Level
	for off := 0; off < len(refs); {
		sz := 1 + rng.Intn(50)
		if off+sz > len(refs) {
			sz = len(refs) - off
		}
		if rng.Intn(2) == 0 {
			got = append(got, replayScalar(mixed, refs[off:off+sz])...)
		} else {
			buf = mixed.AccessBatch(refs[off:off+sz], buf)
			got = append(got, buf...)
		}
		off += sz
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("interleaved levels diverged from scalar oracle")
	}
	checkSameState(t, "interleaved", oracle, mixed)
}

// FuzzAccessBatch asserts scalar/fast-walk equivalence on fuzzer-chosen
// streams through AccessBatch: every returned level and the full
// simulated state (counters, line metadata, Bit-PLRU masks) must
// match. Partway through, both hierarchies reserve a seed-chosen
// number of ways in L1, L2, and the LLC, as COBRA's BinInit does
// mid-run, so the fast walk meets both unreserved and reserved sets and
// location hints made stale by the reservation.
func FuzzAccessBatch(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte{0, 1, 2, 3, 40, 41, 200})
	f.Add(uint64(99), uint8(16), []byte{7, 7, 7, 7, 7, 7})
	f.Add(uint64(12345), uint8(30), []byte{255, 0, 255, 0, 128, 64, 32})
	f.Fuzz(func(t *testing.T, seed uint64, spaceBits uint8, raw []byte) {
		if len(raw) == 0 || len(raw) > 1<<14 {
			t.Skip()
		}
		bits := uint(spaceBits%28) + 8
		rng := rand.New(rand.NewSource(int64(seed)))
		// Derive a ref stream from the raw bytes: each byte contributes
		// an address perturbation and a kind; the rng picks stream bases.
		base := rng.Uint64() % (1 << bits)
		refs := make([]Ref, 0, len(raw))
		for _, b := range raw {
			switch b % 7 {
			case 0: // new random base
				base = rng.Uint64() % (1 << bits)
			case 1: // next line (streaming)
				base += cache.LineSize
			case 2: // same line, different offset
				base = (base &^ uint64(cache.LineSize-1)) + uint64(b%cache.LineSize)
			}
			refs = append(refs, Ref{Addr: base % (1 << bits), Kind: RefKind(b % 3)})
		}
		split := rng.Intn(len(refs) + 1)
		tiny := tinyConfig()
		tiny.PrefetchStreams = 4
		tiny.PrefetchDegree = 2
		for _, cfg := range []Config{DefaultConfig(), tiny} {
			// Reserve 0..ways-1 ways per level (at least one stays usable).
			reserve := [3]int{
				rng.Intn(cfg.L1.Ways), rng.Intn(cfg.L2.Ways), rng.Intn(cfg.LLC.Ways),
			}
			scalar := New(cfg)
			batched := New(cfg)
			want := replayScalar(scalar, refs[:split])
			got := batched.AccessBatch(refs[:split], nil)
			for _, h := range []*Hierarchy{scalar, batched} {
				for i, c := range []*cache.Cache{h.L1c, h.L2c, h.LLCc} {
					if err := c.ReserveWays(reserve[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			want = append(want, replayScalar(scalar, refs[split:])...)
			got = append(got, batched.AccessBatch(refs[split:], nil)...)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("levels diverged (L1 %d ways, reserve %v at ref %d)", cfg.L1.Ways, reserve, split)
			}
			checkSameState(t, fmt.Sprintf("L1 %d ways, reserve %v at ref %d", cfg.L1.Ways, reserve, split), scalar, batched)
		}
	})
}

// FuzzAccess holds Access to the scalar walk reference by reference,
// interleaving what a run does to a hierarchy between references:
// way reservations on L1, L2 and the LLC (COBRA's BinInit), Reset (a
// recycled machine), and direct scalar Store and StoreNT calls on the
// fast side too (COBRA's NoPartition insert). Each of them can leave
// an L1 or L2 location hint, which lives across calls, pointing at a
// line that has moved; a hint trusted without re-verifying shows as a
// diverged level or state. The full state checkSameState compares must
// match before every Reset and at the end.
func FuzzAccess(f *testing.F) {
	f.Add(uint64(1), uint8(3), []byte{0, 16, 32, 48, 1, 17, 33, 49, 12, 2, 18, 34, 50, 13, 3, 19, 35, 51, 14, 15})
	f.Add(uint64(7), uint8(4), []byte{0, 64, 80, 96, 44, 60, 76, 92, 28, 1, 2, 0, 128, 160, 192, 224, 12, 0, 1, 2})
	f.Add(uint64(99), uint8(16), []byte{7, 7, 7, 7, 7, 7, 14, 7, 15, 7, 12, 7, 13, 7})
	f.Add(uint64(12345), uint8(30), []byte{255, 0, 255, 0, 128, 64, 32, 12, 28, 44, 13, 1, 17, 33})
	f.Fuzz(func(t *testing.T, seed uint64, spaceBits uint8, raw []byte) {
		if len(raw) == 0 || len(raw) > 1<<14 {
			t.Skip()
		}
		bits := uint(spaceBits%28) + 8
		tinyPf := tinyConfig()
		tinyPf.PrefetchStreams = 4
		tinyPf.PrefetchDegree = 2
		for _, cfg := range []Config{DefaultConfig(), tinyConfig(), tinyPf} {
			rng := rand.New(rand.NewSource(int64(seed)))
			scalar, fast := New(cfg), New(cfg)
			base := rng.Uint64() % (1 << bits)
			for i, b := range raw {
				what := fmt.Sprintf("L1 %d ways, event %d (%d)", cfg.L1.Ways, i, b)
				switch b % 16 {
				case 12: // reserve ways on one level, at least one left usable
					k := rng.Intn([3]int{cfg.L1.Ways, cfg.L2.Ways, cfg.LLC.Ways}[b>>4%3])
					for _, h := range []*Hierarchy{scalar, fast} {
						if err := [3]*cache.Cache{h.L1c, h.L2c, h.LLCc}[b>>4%3].ReserveWays(k); err != nil {
							t.Fatal(err)
						}
					}
					continue
				case 13:
					checkSameState(t, what, scalar, fast)
					scalar.Reset()
					fast.Reset()
					continue
				}
				switch b >> 4 % 4 {
				case 0: // new random base
					base = rng.Uint64() % (1 << bits)
				case 1: // next line (streaming)
					base += cache.LineSize
				case 2: // same line, different offset
					base = base&^uint64(cache.LineSize-1) + uint64(b%cache.LineSize)
				}
				r := Ref{Addr: base % (1 << bits), Kind: RefKind(b % 3)}
				got := Level(0)
				switch b % 16 {
				case 14: // a scalar call between fast-walk references
					r.Kind = RefStore
					got = scalarRef(fast, r)
				case 15:
					r.Kind = RefStoreNT
					got = scalarRef(fast, r)
				default:
					got = fast.Access(r.Addr, r.Kind)
				}
				want := scalarRef(scalar, r)
				if got != want {
					t.Fatalf("%s: %+v resolved at %v, scalar walk at %v", what, r, got, want)
				}
			}
			checkSameState(t, fmt.Sprintf("L1 %d ways, end", cfg.L1.Ways), scalar, fast)
		}
	})
}

// TestPrefetchFillDisplacesDirtyLine drives a stream whose L2 prefetch
// fill provably displaces a dirty L2 line under the tiny prefetching
// config (8-set 2-way L1, 16-set 2-way L2), through the fast walk and
// the scalar walk side by side. Line 16 is stored, then evicted from
// L1 by 24 and 40 (L1 set 0), so it sits dirty in L2 set 0; line 32
// fills L2 set 0's other way, leaving 16 the Bit-PLRU victim. Loads of
// 61, 62 and 63 (L1 sets 5-7, L2 sets 13-15, all cold) confirm an
// ascending stream, so the miss on 63 prefetches 64 (L2 set 0) and 65.
// The demand fill of 63 displaces nothing, so the one writeback L2
// counts during that reference is the prefetch fill's.
func TestPrefetchFillDisplacesDirtyLine(t *testing.T) {
	cfg := tinyConfig()
	cfg.PrefetchStreams = 4
	cfg.PrefetchDegree = 2
	scalar, fast := New(cfg), New(cfg)
	ref := func(line uint64, kind RefKind) {
		t.Helper()
		r := Ref{Addr: line << cache.LineBits, Kind: kind}
		if got, want := fast.Access(r.Addr, r.Kind), scalarRef(scalar, r); got != want {
			t.Fatalf("line %d: fast walk at %v, scalar walk at %v", line, got, want)
		}
	}
	ref(16, RefStore)
	for _, line := range []uint64{24, 40, 32, 61, 62} {
		ref(line, RefLoad)
	}
	checkSameState(t, "before the prefetch", scalar, fast)
	wb, fills := fast.L2c.Stats.Writebacks, fast.L2c.Stats.Fills
	ref(63, RefLoad)
	checkSameState(t, "after the prefetch", scalar, fast)
	if got := fast.L2c.Stats.Writebacks - wb; got != 1 {
		t.Fatalf("L2 writebacks rose by %d during the prefetch, want 1", got)
	}
	if got := fast.L2c.Stats.Fills - fills; got != 3 {
		t.Fatalf("L2 fills rose by %d (demand 63, prefetch 64 and 65), want 3", got)
	}
	if fast.L2c.Probe(16<<cache.LineBits) || !fast.L2c.Probe(64<<cache.LineBits) {
		t.Fatal("prefetched line 64 did not replace dirty line 16 in L2")
	}
}

// TestScalarWalkMatchesScalarAPI checks the oracle seam itself: after
// ScalarWalk, Access is the scalar Load/Store/StoreNT sequence, state
// and location hints included (it never reads or records an L1 hint).
func TestScalarWalkMatchesScalarAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	refs := genRefs(rng, 4000, 1<<16)
	oracle, seam := New(tinyConfig()), New(tinyConfig())
	seam.ScalarWalk()
	want := replayScalar(oracle, refs)
	got := seam.AccessBatch(refs, nil)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("scalar-walk levels diverged from the scalar API")
	}
	seam.scalar = false // the one field ScalarWalk sets
	if !reflect.DeepEqual(oracle, seam) {
		t.Fatal("scalar-walk hierarchy differs from one driven through the scalar API")
	}
}

// TestAccessBatchL1HitPathAllocs pins the fast walk's L1-hit path at
// zero allocations, reference by reference and through AccessBatch
// once the level buffer is warm.
func TestAccessBatchL1HitPathAllocs(t *testing.T) {
	h := New(DefaultConfig())
	refs := make([]Ref, 256)
	for i := range refs {
		// 4 lines, all L1-resident after warmup; mixed kinds.
		refs[i] = Ref{Addr: uint64(i%4) * cache.LineSize, Kind: RefKind(i % 3)}
	}
	out := h.AccessBatch(refs, nil) // warm: fills lines and the buffer
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range refs {
			h.Access(r.Addr, r.Kind)
		}
		out = h.AccessBatch(refs, out)
	})
	if allocs != 0 {
		t.Fatalf("fast-walk L1-hit path allocates: %v allocs/op", allocs)
	}
}

// BenchmarkHierarchyAccessScalar measures the per-reference scalar
// walk (Load/Store through cache.Cache) on an L1-resident working set
// (the hot-loop case the fast walk optimizes).
func BenchmarkHierarchyAccessScalar(b *testing.B) {
	h := New(DefaultConfig())
	refs := benchRefs()
	replayScalar(h, refs) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range refs {
			scalarRef(h, r)
		}
	}
	b.SetBytes(int64(len(refs)))
}

// BenchmarkHierarchyAccessFast measures the same stream through Access,
// the fast walk.
func BenchmarkHierarchyAccessFast(b *testing.B) {
	h := New(DefaultConfig())
	refs := benchRefs()
	replayScalar(h, refs) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range refs {
			h.Access(r.Addr, r.Kind)
		}
	}
	b.SetBytes(int64(len(refs)))
}

// BenchmarkHierarchyAccessLLCMiss measures Access on uniformly random
// loads and stores over a 64 MB working set, 32 times the LLC: nearly
// every reference misses all three levels, so the time is the miss
// path — the L1 fill and victim writeback, the L2 and LLC lookups,
// fills and dirty-victim installs, and the DRAM accounting.
func BenchmarkHierarchyAccessLLCMiss(b *testing.B) {
	h := New(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	refs := make([]Ref, 4096)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(rng.Intn(64 << 20)), Kind: RefKind(rng.Intn(2))}
	}
	for _, r := range refs { // warm
		h.Access(r.Addr, r.Kind)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range refs {
			h.Access(r.Addr, r.Kind)
		}
	}
	b.SetBytes(int64(len(refs)))
}

// BenchmarkHierarchyAccessL2Resident measures Access on uniformly
// random loads and stores over a 128 KB working set: larger than L1,
// smaller than L2, so most references miss L1 and hit L2 (the way scan
// the L2 location hints stand in front of).
func BenchmarkHierarchyAccessL2Resident(b *testing.B) {
	h := New(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	refs := make([]Ref, 4096)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(rng.Intn(128 << 10)), Kind: RefKind(rng.Intn(2))}
	}
	for _, r := range refs { // warm
		h.Access(r.Addr, r.Kind)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range refs {
			h.Access(r.Addr, r.Kind)
		}
	}
	b.SetBytes(int64(len(refs)))
}

// benchRefs mimics an accumulate inner loop: sequential tuple loads
// from a bin interleaved with read-modify-write pairs to a small
// cache-resident region.
func benchRefs() []Ref {
	refs := make([]Ref, 0, 4096)
	const region = 16 << 10 // 16 KB accumulator region: L1-resident
	bin := uint64(1 << 30)
	for i := 0; len(refs) < cap(refs); i++ {
		refs = append(refs, Ref{Addr: bin, Kind: RefLoad})
		bin += 16
		key := uint64(i*2654435761) % region
		refs = append(refs, Ref{Addr: key, Kind: RefLoad})
		refs = append(refs, Ref{Addr: key, Kind: RefStore})
	}
	return refs
}
