// Package cache models a single level of a set-associative cache with
// pluggable replacement policies and Intel-CAT-style way partitioning.
//
// The model is trace-driven and functional-only at this layer: callers
// feed byte addresses through a level's operations and read
// hit/miss/writeback counts back. Timing is the concern of package cpu
// and package mem, which compose levels into a hierarchy. A level is
// the only code that knows its metadata format, its replacement policy
// and its stats accounting; a hierarchy composes four operations:
//
//   - Access, a demand load or store;
//   - Writeback, the install of a dirty line the level above displaced,
//     which counts no demand event;
//   - Prefetch, a prefetch fill;
//   - WriteNT, a non-temporal store that updates a resident line.
//
// Hinted and HitAt are Access's inlinable fast path.
//
// Hot-path layout: per-line metadata is packed into a single uint64
// (tag<<2 | dirty<<1 | valid), so a way probe is one load and one
// masked compare. In front of the way scan sits a table of verified
// location hints (see Cache.hints). Both are pure implementation
// details: every simulated counter (hits, misses, evictions,
// writebacks) and every victim choice is that of a plain scan of the
// set's ways.
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

// Cache is one set-associative cache level.
//
// Way partitioning: ReserveWays(k) removes the first k ways of every set
// from normal allocation, modeling Intel CAT reserving those ways for
// pinned data (COBRA's C-Buffers). Reserved ways are never probed or
// filled by the level's operations; the pinned structures that live
// there are modeled by their owners (package core).
type Cache struct {
	cfg      Config
	setMask  uint64
	setBits  uint
	ways     int
	reserved int // ways [0, reserved) are withheld from normal use

	// meta holds packed per-line metadata (tag<<2|dirty<<1|valid),
	// indexed by set*ways+way.
	meta []uint64

	// Verified location hints: a direct-mapped table of the ways lines
	// were last found or filled in, one way byte per line of the level
	// (the slot of a line is line & hintMask). The hot loops interleave
	// several line streams (input / counter / C-Buffer; bin /
	// accumulator), and a hint hit replaces the way scan with one
	// metadata compare. A set plus a tag names a line, so a hint is
	// trusted only after the live metadata word at (set(line), way)
	// re-verifies (valid + tag): evictions, reservations, resets, and a
	// slot another line last wrote can never fake a hit; they just fall
	// back to the scan. A reserved way's metadata is zero, so a verified
	// way is always a usable one, and a set holds at most one valid copy
	// of a tag, so it is the way the scan would find.
	hints    []uint8
	hintMask uint64

	// hintValid is the valid bit Hinted's compare asks for: metaValid
	// on a Bit-PLRU level, and on any other a word no metadata holds
	// (bit 63 is past every tag), so Hinted never verifies there.
	hintValid uint64

	// Replacement state, called by concrete type: exactly the one of
	// policy is in use.
	policy PolicyKind
	plru   bitPLRU
	rrip   drrip
	lru    trueLRU
	rnd    randomRepl

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
	if cfg.Ways <= 0 || cfg.Ways > 256 {
		panic(fmt.Sprintf("cache %s: ways must be in [1, 256], got %d", cfg.Name, cfg.Ways))
	}
	if cfg.Policy == BitPLRU && cfg.Ways > plruMaxWays {
		panic(fmt.Sprintf("cache %s: Bit-PLRU supports at most %d ways, got %d", cfg.Name, plruMaxWays, cfg.Ways))
	}
	n := sets * cfg.Ways
	hints := 1 << stats.Log2Ceil(uint64(n)) // a power of two: slot = line & (hints-1)
	c := &Cache{
		cfg:      cfg,
		setMask:  uint64(sets - 1),
		setBits:  stats.Log2Ceil(uint64(sets)),
		ways:     cfg.Ways,
		meta:     make([]uint64, n),
		hints:    make([]uint8, hints),
		hintMask: uint64(hints - 1),
		policy:   cfg.Policy,
	}
	c.hintValid = metaValid
	if cfg.Policy != BitPLRU {
		c.hintValid |= 1 << 63
	}
	switch cfg.Policy {
	case BitPLRU:
		c.plru = newBitPLRU(sets, cfg.Ways)
	case TrueLRU:
		c.lru = newTrueLRU(sets, cfg.Ways)
	case DRRIP:
		c.rrip = newDRRIP(sets, cfg.Ways)
	case Random:
		c.rnd.reset()
	default:
		panic(fmt.Sprintf("cache %s: unknown replacement policy %d", cfg.Name, cfg.Policy))
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

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
	for base := 0; base < len(c.meta); base += c.ways {
		clear(c.meta[base : base+k])
	}
	return nil
}

// ReservedWays returns the current reservation.
func (c *Cache) ReservedWays() int { return c.reserved }

// Reset restores the level to its post-New state: all lines invalid,
// hints cleared, stats zeroed, replacement state cleared, reservation
// lifted. It lets a pooled machine reuse a Cache without leaking lines,
// stats, or replacement history from the previous run.
func (c *Cache) Reset() {
	clear(c.meta)
	clear(c.hints)
	c.reserved = 0
	switch c.policy {
	case BitPLRU:
		c.plru.reset()
	case TrueLRU:
		c.lru.reset()
	case DRRIP:
		c.rrip.reset()
	case Random:
		c.rnd.reset()
	}
	c.Stats = Stats{}
}

// Hinted and HitAt are Access's fast path for a Bit-PLRU level, split
// in two so that each inlines into the caller: together they are a
// demand hit on a line that sits in the way its location hint names.
//
// Hinted reports whether addr's line sits where its hint says, and its
// position there. It is never true for a level of any other policy,
// and it changes nothing; on false the caller goes on to Access. (A
// line whose hint verifies is present, so Hinted is also a presence
// probe.)
func (c *Cache) Hinted(addr uint64) (pos int, ok bool) {
	line := addr >> LineBits
	i := int(line&c.setMask)*c.ways + int(c.hints[line&c.hintMask])
	return i, c.meta[i]&^metaDirty == line>>c.setBits<<metaTagShift|c.hintValid
}

// HitAt performs the demand hit of addr at pos, which Hinted returned
// for it: the dirty bit of a store, the Bit-PLRU touch and the hit
// count.
func (c *Cache) HitAt(addr uint64, pos int, write bool) {
	set := int(addr >> LineBits & c.setMask)
	if write {
		c.meta[pos] |= metaDirty
	}
	c.plru.touch(set, pos-set*c.ways)
	c.Stats.Hits++
}

// Access performs a demand load or store of addr. Misses allocate
// (write-allocate, writeback). On a miss whose fill displaced a dirty
// line, dirty is set and victim is that line's address, for the
// hierarchy to write back.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, dirty bool) {
	line, set, base, want := c.locate(addr)
	if w := c.find(line, base, want); w >= 0 {
		if write {
			c.meta[base+w] |= metaDirty
		}
		c.onHit(set, w, base)
		c.Stats.Hits++
		return true, 0, false
	}
	c.Stats.Misses++
	c.Stats.Fills++
	if write {
		want |= metaDirty
	}
	victim, dirty = c.fill(line, set, base, want)
	return false, victim, dirty
}

// Writeback installs addr's line dirty, as the level above writing back
// a line it displaced: a resident copy turns dirty and takes a hit's
// replacement update, and otherwise the line fills dirty. Neither is a
// demand event, so no hit, miss or fill is counted, only the eviction
// and writeback of a fill. It reports whether the line the fill
// displaced was dirty.
func (c *Cache) Writeback(addr uint64) (dirty bool) {
	line, set, base, want := c.locate(addr)
	if w := c.find(line, base, want); w >= 0 {
		c.meta[base+w] |= metaDirty
		c.onHit(set, w, base)
		return false
	}
	_, dirty = c.fill(line, set, base, want|metaDirty)
	return dirty
}

// Prefetch installs addr's line if absent without counting a demand
// miss (the L2 stream prefetcher's fill), and reports whether the line
// was already present, in which case nothing changes. A dirty line the
// fill displaces counts in Writebacks but goes nowhere.
func (c *Cache) Prefetch(addr uint64) (present bool) {
	line, set, base, want := c.locate(addr)
	if c.find(line, base, want) >= 0 {
		return true
	}
	c.fill(line, set, base, want)
	c.Stats.Fills++
	return false
}

// WriteNT models a non-temporal (streaming) store: if the line is
// resident it is updated in place (marked dirty, counted as a hit) and
// WriteNT reports true; otherwise the store bypasses the level entirely
// (write-combining to memory) and nothing changes.
func (c *Cache) WriteNT(addr uint64) bool {
	line, set, base, want := c.locate(addr)
	w := c.find(line, base, want)
	if w < 0 {
		return false
	}
	c.meta[base+w] |= metaDirty
	c.onHit(set, w, base)
	c.Stats.Hits++
	return true
}

// locate returns addr's line number, its set, the set's first metadata
// index, and the metadata word of the line when valid and clean.
func (c *Cache) locate(addr uint64) (line uint64, set, base int, want uint64) {
	line = addr >> LineBits
	set = int(line & c.setMask)
	return line, set, set * c.ways, line>>c.setBits<<metaTagShift | metaValid
}

// find returns the way of the set at base that holds line, whose valid
// clean word is want, or -1 when the line is absent: the hinted way
// when its word verifies, else a scan of the usable ways, which records
// the way it finds as the line's hint. It has no simulated side
// effects.
func (c *Cache) find(line uint64, base int, want uint64) (way int) {
	row := c.meta[base : base+c.ways]
	slot := line & c.hintMask
	if w := int(c.hints[slot]); row[w]&^metaDirty == want {
		return w
	}
	for w := c.reserved; w < len(row); w++ {
		if row[w]&^metaDirty == want {
			c.hints[slot] = uint8(w)
			return w
		}
	}
	return -1
}

// onHit is the replacement update of a hit on way of set (base is the
// set's first metadata index), by the policy's concrete type. Random
// keeps no recency.
func (c *Cache) onHit(set, way, base int) {
	switch c.policy {
	case BitPLRU:
		c.plru.touch(set, way)
	case DRRIP:
		c.rrip.rrpv[base+way] = 0 // a near re-reference
	case TrueLRU:
		c.lru.clock++
		c.lru.stamp[base+way] = c.lru.clock
	}
}

// fill installs metadata word m for line in the set at base: in the
// first invalid usable way, else in the policy's victim, counting the
// eviction and, for a dirty victim, the writeback. It returns the
// address of a dirty line it displaced, and records the way as line's
// hint. The caller counts the fill.
func (c *Cache) fill(line uint64, set, base int, m uint64) (victim uint64, dirty bool) {
	row := c.meta[base : base+c.ways]
	way := -1
	for w := c.reserved; w < len(row); w++ {
		if row[w]&metaValid == 0 {
			way = w
			break
		}
	}
	if way < 0 {
		switch c.policy {
		case BitPLRU:
			way = c.plru.victim(set, c.reserved)
		case DRRIP:
			way = c.rrip.victim(set, c.reserved)
		case TrueLRU:
			way = c.lru.victim(set, c.reserved)
		default:
			way = c.rnd.victim(c.ways, c.reserved)
		}
		old := row[way]
		c.Stats.Evictions++
		if old&metaDirty != 0 {
			c.Stats.Writebacks++
			victim, dirty = old>>metaTagShift<<(LineBits+c.setBits)|uint64(set)<<LineBits, true
		}
	}
	row[way] = m
	if c.policy == DRRIP {
		c.rrip.fill(set, way)
	} else {
		c.onHit(set, way, base) // the other policies insert as they hit
	}
	c.hints[line&c.hintMask] = uint8(way)
	return victim, dirty
}

// Line reports what way way of set holds: whether the way is valid and
// dirty, and a valid line's line-aligned address. It lets package mem's
// tests compare a level way by way against their reference walk.
func (c *Cache) Line(set, way int) (addr uint64, valid, dirty bool) {
	m := c.meta[set*c.ways+way]
	return m>>metaTagShift<<(LineBits+c.setBits) | uint64(set)<<LineBits, m&metaValid != 0, m&metaDirty != 0
}
