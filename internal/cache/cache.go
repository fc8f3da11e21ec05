// Package cache models a single level of a set-associative cache with
// pluggable replacement policies and Intel-CAT-style way partitioning.
//
// The model is trace-driven and functional-only at this layer: callers
// feed byte addresses through Access and read hit/miss/writeback counts
// back. Timing is the concern of package cpu and package mem, which
// compose levels into a hierarchy.
//
// Hot-path layout: per-line metadata is packed into a single uint64
// (tag<<2 | dirty<<1 | valid) so the probe loop in find/fill issues one
// load and one masked compare per way instead of touching three
// parallel slices. A one-entry last-line MRU filter in front of the way
// scan short-circuits the common same-line / same-set-reuse case. Both
// are pure implementation details: every simulated counter (hits,
// misses, evictions, writebacks) and every victim choice is identical
// to the unpacked three-slice layout.
package cache

import (
	"fmt"

	"cobra/internal/stats"
)

// LineSize is the cache line size in bytes used throughout the
// simulated machine (Table II in the paper assumes 64 B lines).
const LineSize = 64

// LineBits is log2(LineSize).
const LineBits = 6

// Packed per-line metadata: tag<<2 | dirty<<1 | valid. A zero word is
// an invalid line. Tags are addr >> (LineBits + setBits), so the
// packing supports simulated addresses up to 2^61 — far beyond the
// model's 2^41 address-space ceiling.
const (
	metaValid    uint64 = 1 << 0
	metaDirty    uint64 = 1 << 1
	metaTagShift        = 2
)

// Exported aliases of the packed-metadata layout so BatchView users
// (package mem's inlined hit path) can compose probe words without
// duplicating magic numbers.
const (
	MetaValid    = metaValid
	MetaDirty    = metaDirty
	MetaTagShift = metaTagShift
)

// Stats aggregates access outcomes for one cache level.
type Stats struct {
	Hits       uint64 // accesses that found the line
	Misses     uint64 // accesses that had to fill
	Evictions  uint64 // valid lines displaced by fills
	Writebacks uint64 // dirty lines displaced by fills
	Fills      uint64 // lines installed (== Misses unless bypassed)
}

// Accesses returns total accesses observed.
func (s *Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns Misses/Accesses, or 0 when idle.
func (s *Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// Config describes one cache level's geometry.
type Config struct {
	Name   string // for error messages and reports ("L1", "L2", "LLC")
	SizeB  int    // total capacity in bytes
	Ways   int    // associativity
	Policy PolicyKind
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeB / (c.Ways * LineSize) }

// Lines returns the total number of lines.
func (c Config) Lines() int { return c.SizeB / LineSize }

// Cache is one set-associative cache level.
//
// Way partitioning: ReserveWays(k) removes the first k ways of every set
// from normal allocation, modeling Intel CAT reserving those ways for
// pinned data (COBRA's C-Buffers). Reserved ways are never probed or
// filled by Access; the pinned structures that live there are modeled by
// their owners (package core).
type Cache struct {
	cfg      Config
	sets     int
	setMask  uint64
	setBits  uint
	ways     int
	reserved int // ways [0, reserved) are withheld from normal use

	// meta holds packed per-line metadata (tag<<2|dirty<<1|valid),
	// indexed by set*ways+way.
	meta []uint64

	// One-entry MRU filter: the (set, way) of the last line touched by
	// find/fill. It is a hint only — find re-verifies the packed word
	// before trusting it — so invalidations, reservations, and refills
	// never need to maintain it for correctness.
	lastSet int32
	lastWay int32

	// Replacement state, called directly for the two policies of the
	// simulated machine (Table II): plru for Bit-PLRU (L1, L2) and rrip
	// for DRRIP (the LLC). The ablation-only TrueLRU and Random (A2) sit
	// behind the replacer interface in other. Exactly one of the three
	// is set.
	plru  *bitPLRU
	rrip  *RRIP
	other replacer

	Stats Stats
}

// New constructs a cache level. It panics on a malformed geometry since
// configs are compile-time constants of the simulated machine.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	if sets <= 0 || !stats.IsPow2(uint64(sets)) {
		panic(fmt.Sprintf("cache %s: set count %d must be a positive power of two (size=%d ways=%d)",
			cfg.Name, sets, cfg.SizeB, cfg.Ways))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", cfg.Name))
	}
	if cfg.Policy == BitPLRU && cfg.Ways > plruMaxWays {
		panic(fmt.Sprintf("cache %s: Bit-PLRU supports at most %d ways, got %d", cfg.Name, plruMaxWays, cfg.Ways))
	}
	n := sets * cfg.Ways
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		setBits: stats.Log2Ceil(uint64(sets)),
		ways:    cfg.Ways,
		meta:    make([]uint64, n),
		lastSet: -1,
	}
	switch cfg.Policy {
	case BitPLRU:
		c.plru = newBitPLRU(sets, cfg.Ways)
	case DRRIP:
		c.rrip = newRRIP(sets, cfg.Ways)
	default:
		c.other = newReplacer(cfg.Policy, sets, cfg.Ways)
	}
	return c
}

// Config returns the geometry this level was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// ReserveWays withholds the first k ways of every set from normal
// allocation and invalidates any resident lines in them (their contents
// conceptually belong to the pinned owner now). k must leave at least
// one usable way.
func (c *Cache) ReserveWays(k int) error {
	if k < 0 || k >= c.ways {
		return fmt.Errorf("cache %s: cannot reserve %d of %d ways (at least one must remain)", c.cfg.Name, k, c.ways)
	}
	c.reserved = k
	for s := 0; s < c.sets; s++ {
		for w := 0; w < k; w++ {
			c.meta[s*c.ways+w] = 0
		}
	}
	c.lastSet = -1
	return nil
}

// ReservedWays returns the current reservation.
func (c *Cache) ReservedWays() int { return c.reserved }

// Reset restores the level to its post-New state: all lines invalid,
// stats zeroed, replacement state cleared, reservation lifted. It lets
// a pooled machine reuse a Cache without leaking lines, stats, or
// replacement history from the previous run.
func (c *Cache) Reset() {
	for i := range c.meta {
		c.meta[i] = 0
	}
	c.reserved = 0
	c.lastSet, c.lastWay = -1, 0
	switch {
	case c.plru != nil:
		c.plru.reset()
	case c.rrip != nil:
		c.rrip.reset()
	default:
		c.other.reset()
	}
	c.Stats = Stats{}
}

func (c *Cache) setIndex(addr uint64) int { return int((addr >> LineBits) & c.setMask) }
func (c *Cache) tagOf(addr uint64) uint64 { return addr >> (LineBits + c.setBits) }

// Result reports what one access did.
type Result struct {
	Hit           bool
	Evicted       bool   // a valid line was displaced
	WroteBack     bool   // the displaced line was dirty
	VictimAddr    uint64 // line-aligned address of the displaced line (valid when Evicted)
	BypassedAlloc bool   // access was a non-allocating write (non-temporal store)
}

// Access performs a demand load or store of addr. Misses allocate
// (write-allocate, writeback). It returns what happened so hierarchies
// can propagate fills and writebacks.
func (c *Cache) Access(addr uint64, write bool) Result {
	return c.access(addr, write)
}

// Prefetch installs addr's line if absent without counting a demand
// miss. Used by the L2 stream prefetcher. Returns true if the line was
// already present.
func (c *Cache) Prefetch(addr uint64) bool {
	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	if w := c.find(set, tag); w >= 0 {
		return true
	}
	c.fill(set, tag, false)
	return false
}

// Probe reports whether addr's line is resident, without side effects.
func (c *Cache) Probe(addr uint64) bool {
	return c.find(c.setIndex(addr), c.tagOf(addr)) >= 0
}

// WriteNT models a non-temporal (streaming) store: if the line is
// resident it is updated in place (and marked dirty); otherwise the
// store bypasses the cache entirely (write-combining to memory) and no
// allocation happens.
func (c *Cache) WriteNT(addr uint64) Result {
	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	if w := c.find(set, tag); w >= 0 {
		c.meta[set*c.ways+w] |= metaDirty
		c.onHit(set, w)
		c.Stats.Hits++
		return Result{Hit: true}
	}
	return Result{BypassedAlloc: true}
}

func (c *Cache) access(addr uint64, write bool) Result {
	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	if w := c.find(set, tag); w >= 0 {
		if write {
			c.meta[set*c.ways+w] |= metaDirty
		}
		c.onHit(set, w)
		c.Stats.Hits++
		return Result{Hit: true}
	}
	c.Stats.Misses++
	return c.fill(set, tag, write)
}

// PrefetchMiss installs addr's line as a prefetch fill, skipping the
// tag probe — for callers that have already established (via Probe)
// that the line is absent. Identical to Prefetch on a missing line.
func (c *Cache) PrefetchMiss(addr uint64) {
	c.fill(c.setIndex(addr), c.tagOf(addr), false)
}

// find locates tag in set, returning the way or -1. The packed layout
// makes the scan a single masked compare per way; the MRU filter skips
// the scan entirely when the last-touched line matches (it re-verifies
// the packed word, so it is never stale).
func (c *Cache) find(set int, tag uint64) int {
	base := set * c.ways
	want := tag<<metaTagShift | metaValid
	row := c.meta[base : base+c.ways]
	if int(c.lastSet) == set {
		if w := int(c.lastWay); w >= c.reserved && row[w]&^metaDirty == want {
			return w
		}
	}
	for w := c.reserved; w < len(row); w++ {
		if row[w]&^metaDirty == want {
			c.lastSet, c.lastWay = int32(set), int32(w)
			return w
		}
	}
	return -1
}

func (c *Cache) fill(set int, tag uint64, write bool) Result {
	base := set * c.ways
	row := c.meta[base : base+c.ways]
	res := Result{}
	way := -1
	for w := c.reserved; w < len(row); w++ {
		if row[w]&metaValid == 0 {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.victim(set)
		m := row[way]
		res.Evicted = true
		res.WroteBack = m&metaDirty != 0
		res.VictimAddr = c.victimAddr(set, m>>metaTagShift)
		c.Stats.Evictions++
		if res.WroteBack {
			c.Stats.Writebacks++
		}
	}
	m := tag<<metaTagShift | metaValid
	if write {
		m |= metaDirty
	}
	row[way] = m
	c.lastSet, c.lastWay = int32(set), int32(way)
	c.onFill(set, way)
	c.Stats.Fills++
	return res
}

// onHit, onFill, and victim dispatch to the level's replacement
// policy: a nil check per direct policy instead of an interface call.
func (c *Cache) onHit(set, way int) {
	switch {
	case c.plru != nil:
		c.plru.touch(set, way)
	case c.rrip != nil:
		c.rrip.Hit(set, way)
	default:
		c.other.onHit(set, way)
	}
}

func (c *Cache) onFill(set, way int) {
	switch {
	case c.plru != nil:
		c.plru.touch(set, way)
	case c.rrip != nil:
		c.rrip.Fill(set, way)
	default:
		c.other.onFill(set, way)
	}
}

func (c *Cache) victim(set int) int {
	switch {
	case c.plru != nil:
		return PLRUVictim(c.plru.mru[set], c.plru.full, c.reserved)
	case c.rrip != nil:
		return c.rrip.Victim(set, c.reserved)
	default:
		return c.other.victim(set, c.reserved)
	}
}

func (c *Cache) victimAddr(set int, tag uint64) uint64 {
	return (tag << (LineBits + c.setBits)) | (uint64(set) << LineBits)
}

// BatchView exposes the packed per-line metadata and the replacement
// state of the simulated machine's policies — the Bit-PLRU masks, or
// DRRIP's RRIP state — so package mem can inline this level's hit and
// fill paths in its fast walk without a call per reference. Meta, PLRU
// and RRIP stay the level's own state for its whole life (Reset clears
// them in place), so both walks update one copy; the way reservation
// is not part of the view, as it changes mid-run (read ReservedWays
// live). Mutations through the view must follow the scalar access
// semantics exactly (fill way choice, dirty bit, replacement updates
// via PLRUTouch and PLRUVictim, or RRIP's Hit, Fill and Victim), and
// the caller counts those accesses in Stats itself.
type BatchView struct {
	Meta     []uint64 // packed tag<<2|dirty<<1|valid, indexed set*Ways+way
	PLRU     []uint16 // per-set Bit-PLRU masks; nil if the policy is not mask Bit-PLRU
	PLRUFull uint16   // mask with all Ways bits set
	RRIP     *RRIP    // DRRIP state; nil if the policy is not DRRIP
	SetMask  uint64
	SetBits  uint
	Ways     int
}

// BatchView returns the inline-probe view of this level. PLRU is
// non-nil only for Bit-PLRU and RRIP only for DRRIP; with TrueLRU or
// Random an inlining caller must keep using the scalar methods, whose
// replacement updates are not replayed outside this package.
func (c *Cache) BatchView() BatchView {
	v := BatchView{
		Meta:    c.meta,
		RRIP:    c.rrip,
		SetMask: c.setMask,
		SetBits: c.setBits,
		Ways:    c.ways,
	}
	if c.plru != nil {
		v.PLRU = c.plru.mru
		v.PLRUFull = c.plru.full
	}
	return v
}
