// Package mem composes cache levels into the three-level hierarchy of
// the simulated machine (Table II of the paper): private L1 and L2, a
// NUCA LLC slice local to the core, and DRAM. It adds the L2 stream
// prefetcher, non-temporal store handling with write-combining, and
// DRAM traffic accounting.
//
// The hierarchy is functional (which level serviced an access, what
// traffic moved); cycle costs are attached by package cpu using the
// Level returned from each access.
package mem

import (
	"fmt"

	"cobra/internal/cache"
)

// Level identifies which part of the hierarchy serviced an access.
type Level int

// Hierarchy levels, nearest first.
const (
	L1 Level = iota
	L2
	LLC
	DRAM
)

// String returns the level's display name.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case DRAM:
		return "DRAM"
	}
	return "unknown"
}

// Latencies gives load-to-use cycles per level (Table II: 3/8/21 and
// 80 ns DRAM ≈ 212 cycles at 2.66 GHz).
type Latencies struct {
	L1, L2, LLC, DRAM uint32
}

// DefaultLatencies mirrors Table II.
func DefaultLatencies() Latencies { return Latencies{L1: 3, L2: 8, LLC: 21, DRAM: 212} }

// Of returns the latency for servicing level l.
func (lat Latencies) Of(l Level) uint32 {
	switch l {
	case L1:
		return lat.L1
	case L2:
		return lat.L2
	case LLC:
		return lat.LLC
	default:
		return lat.DRAM
	}
}

// Config describes the per-core hierarchy slice.
type Config struct {
	L1, L2, LLC cache.Config
	Lat         Latencies
	// Prefetch configures the L2 stream prefetcher; Degree 0 disables it.
	PrefetchStreams int
	PrefetchDegree  int
	// NUCA, when enabled, charges NoC hop latency for LLC accesses that
	// land on remote banks of the shared, address-interleaved LLC
	// (Table II: 4x4 mesh, 2 cycles/hop). Off by default: the base
	// model treats the LLC as the core-local NUCA slice, which is how
	// COBRA pins its C-Buffers; NUCA mode sharpens the BASELINE's cost
	// of scattering over the whole shared LLC.
	NUCA NUCAConfig
}

// NUCAConfig describes the mesh the shared LLC banks sit on.
type NUCAConfig struct {
	Enable    bool
	MeshDim   int // MeshDim x MeshDim banks (Table II: 4)
	HopCycles int // per-hop latency (Table II: 2)
	CoreX     int // this core's mesh position
	CoreY     int
}

// DefaultNUCA mirrors Table II with the core at a central position.
func DefaultNUCA() NUCAConfig {
	return NUCAConfig{Enable: true, MeshDim: 4, HopCycles: 2, CoreX: 1, CoreY: 1}
}

// LLCExtraCycles returns the round-trip NoC latency for the bank
// holding addr (0 when NUCA modeling is off or the bank is local).
func (h *Hierarchy) LLCExtraCycles(addr uint64) uint32 {
	n := h.cfg.NUCA
	if !n.Enable || n.MeshDim <= 1 {
		return 0
	}
	bank := int(addr>>cache.LineBits) % (n.MeshDim * n.MeshDim)
	bx, by := bank%n.MeshDim, bank/n.MeshDim
	dist := abs(bx-n.CoreX) + abs(by-n.CoreY)
	return uint32(2 * dist * n.HopCycles) // request + response traversal
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// DefaultConfig mirrors Table II: 32 KB/8-way Bit-PLRU L1, 256 KB/8-way
// Bit-PLRU L2, 2 MB/16-way DRRIP LLC slice (the core-local NUCA bank).
func DefaultConfig() Config {
	return Config{
		L1:              cache.Config{Name: "L1", SizeB: 32 << 10, Ways: 8, Policy: cache.BitPLRU},
		L2:              cache.Config{Name: "L2", SizeB: 256 << 10, Ways: 8, Policy: cache.BitPLRU},
		LLC:             cache.Config{Name: "LLC", SizeB: 2 << 20, Ways: 16, Policy: cache.DRRIP},
		Lat:             DefaultLatencies(),
		PrefetchStreams: 16,
		PrefetchDegree:  4,
	}
}

// Traffic counts DRAM transfers in cache lines.
type Traffic struct {
	ReadLines     uint64 // demand + prefetch fills from DRAM
	WriteLines    uint64 // LLC writebacks + non-temporal stores
	PrefetchLines uint64 // subset of ReadLines initiated by the prefetcher
}

// Bytes returns total DRAM bytes moved.
func (t Traffic) Bytes() uint64 { return (t.ReadLines + t.WriteLines) * cache.LineSize }

// Hierarchy is one core's view of the memory system.
type Hierarchy struct {
	cfg Config

	L1c  *cache.Cache
	L2c  *cache.Cache
	LLCc *cache.Cache

	pf wcAndPf

	// Verified-slot cache over the L2 metadata, shared by the demand
	// miss path, the prefetcher's residency probes, and L1-victim
	// writeback installs. Each slot remembers where a line was last
	// located in L2 (its packed-metadata index); a slot is trusted only
	// after the live metadata word re-verifies (valid + tag), so
	// intervening evictions, resets, or reservations can never fake a
	// hit — they just fall back to the full way scan. Entries are
	// recorded exclusively from find/fill results, so a verified index
	// always lies in a non-reserved way (the ways find itself scans).
	l2SlotLine [64]uint64
	l2SlotIdx  [64]int32
	l2Meta     []uint64 // L2 packed metadata (slice identity is stable)
	l2SetMask  uint64
	l2TagShift uint
	l2Ways     int

	DRAMTraffic Traffic
}

// wcAndPf bundles the prefetcher stream table and the non-temporal
// write-combining buffer state.
type wcAndPf struct {
	// Stream table, struct-of-arrays: the detection scan in
	// observeStream runs on every L1 demand miss and touches only
	// lastLine (two cache lines at 16 streams) instead of a struct per
	// stream. A stream is live iff lastUse != 0 — the clock
	// pre-increments, so an allocated entry's stamp is always ≥ 1 —
	// and streams are never invalidated. Never-allocated entries hold
	// an unreachable sentinel lastLine (no line address reaches
	// 2^58), so the match scan needs no liveness check.
	lastLine []uint64
	lastUse  []uint64
	dir      []int64 // +1 or -1
	conf     []int
	clock    uint64
	degree   int
	nvalid   int // live entries; never decreases

	// Non-temporal store write-combining: last few line addresses seen,
	// so a burst of NT stores to one line costs one DRAM write.
	wcLines [4]uint64
	wcValid [4]bool
	wcNext  int
}

// New builds a hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg:  cfg,
		L1c:  cache.New(cfg.L1),
		L2c:  cache.New(cfg.L2),
		LLCc: cache.New(cfg.LLC),
	}
	h.pf.lastLine = make([]uint64, cfg.PrefetchStreams)
	for i := range h.pf.lastLine {
		h.pf.lastLine[i] = ^uint64(0) // sentinel: never matches a real line
	}
	h.pf.lastUse = make([]uint64, cfg.PrefetchStreams)
	h.pf.dir = make([]int64, cfg.PrefetchStreams)
	h.pf.conf = make([]int, cfg.PrefetchStreams)
	l2v := h.L2c.BatchView()
	h.l2Meta = l2v.Meta
	h.l2SetMask = l2v.SetMask
	h.l2TagShift = cache.LineBits + l2v.SetBits
	h.l2Ways = l2v.Ways
	for i := range h.l2SlotLine {
		h.l2SlotLine[i] = ^uint64(0) // unreachable line: slots start cold
	}
	h.pf.degree = cfg.PrefetchDegree
	return h
}

// Reset restores the hierarchy to its post-New state so a recycled
// machine is indistinguishable from a fresh one: every cache level
// (lines, stats, replacement state, way reservation), the prefetcher's
// stream table, the write-combining buffer, the L2 slot hints, and the
// DRAM traffic counts. A field added to Hierarchy must be restored
// here too; the sim package's recycling test compares a reset
// hierarchy against mem.New field by field.
func (h *Hierarchy) Reset() {
	h.L1c.Reset()
	h.L2c.Reset()
	h.LLCc.Reset()
	degree := h.pf.degree
	lastLine, lastUse, dir, conf := h.pf.lastLine, h.pf.lastUse, h.pf.dir, h.pf.conf
	for i := range lastLine {
		lastLine[i] = ^uint64(0)
		lastUse[i], dir[i], conf[i] = 0, 0, 0
	}
	h.pf = wcAndPf{lastLine: lastLine, lastUse: lastUse, dir: dir, conf: conf, degree: degree}
	for i := range h.l2SlotLine {
		h.l2SlotLine[i] = ^uint64(0)
	}
	h.l2SlotIdx = [64]int32{}
	h.DRAMTraffic = Traffic{}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Load performs a demand load and returns the servicing level.
func (h *Hierarchy) Load(addr uint64) Level { return h.access(addr, false) }

// Store performs a demand store (write-allocate) and returns the level
// that serviced the fill (L1 when the line was already resident).
func (h *Hierarchy) Store(addr uint64) Level { return h.access(addr, true) }

// StoreNT performs a non-temporal store: caches are updated only if the
// line is already resident; otherwise the write bypasses the hierarchy
// and write-combines to DRAM. Returns the level charged (L1 when it hit
// a resident line, DRAM otherwise).
func (h *Hierarchy) StoreNT(addr uint64) Level {
	if r := h.L1c.WriteNT(addr); r.Hit {
		return L1
	}
	if r := h.L2c.WriteNT(addr); r.Hit {
		return L2
	}
	if r := h.LLCc.WriteNT(addr); r.Hit {
		return LLC
	}
	h.writeCombine(addr)
	return DRAM
}

// WriteLineDirect models a full-line DRAM write that bypasses the cache
// hierarchy entirely (COBRA's LLC C-Buffer eviction writing a line-sized
// burst of tuples to an in-memory bin). lines counts 64 B units.
func (h *Hierarchy) WriteLineDirect(lines uint64) { h.DRAMTraffic.WriteLines += lines }

// ReadLineDirect models a full-line DRAM read bypassing the caches.
func (h *Hierarchy) ReadLineDirect(lines uint64) { h.DRAMTraffic.ReadLines += lines }

func (h *Hierarchy) access(addr uint64, write bool) Level {
	if r := h.L1c.Access(addr, write); r.Hit {
		return L1
	} else if r.WroteBack {
		h.installWriteback(h.L2c, r.VictimAddr, LLC)
	}
	// L1 miss: probe L2 (prefetcher observes the L1-miss stream).
	h.observeStream(addr)
	if r := h.L2c.Access(addr, false); r.Hit {
		return L1fillFrom(L2)
	} else if r.WroteBack {
		h.installWriteback(h.LLCc, r.VictimAddr, DRAM)
	}
	if r := h.LLCc.Access(addr, false); r.Hit {
		return L1fillFrom(LLC)
	} else if r.WroteBack {
		h.DRAMTraffic.WriteLines++
	}
	h.DRAMTraffic.ReadLines++
	return DRAM
}

// L1fillFrom exists to make the control flow above read naturally; the
// fill into upper levels has already happened via Access side effects
// conceptually (we model upper-level fills implicitly: the line was
// installed in L1 by the initial Access call's miss path).
func L1fillFrom(l Level) Level { return l }

// installWriteback installs a dirty victim from level i into level i+1.
// If that displaces another dirty line, the cascade continues (next ==
// DRAM means count traffic).
func (h *Hierarchy) installWriteback(c *cache.Cache, victim uint64, next Level) {
	if c == h.L2c {
		// L1 victims usually still sit in L2 (they were filled from
		// it); a slot-verified hit is Access's hit path with the hit
		// count immediately undone — i.e. dirty mark + touch only.
		line := victim >> cache.LineBits
		slot := line & 63
		want := victim>>h.l2TagShift<<cache.MetaTagShift | cache.MetaValid
		if h.l2SlotLine[slot] == line && h.l2Meta[h.l2SlotIdx[slot]]&^cache.MetaDirty == want {
			set := int(line & h.l2SetMask)
			c.AccessHitAt(set, int(h.l2SlotIdx[slot])-set*h.l2Ways, true)
			c.Stats.Hits--
			return
		}
		r := c.Access(victim, true)
		// The install left the victim resident wherever the access
		// landed it (hit way or fill way).
		s, w := c.LastTouched()
		h.l2SlotLine[slot] = line
		h.l2SlotIdx[slot] = int32(s*h.l2Ways + w)
		h.finishWriteback(c, r, next)
		return
	}
	h.finishWriteback(c, c.Access(victim, true), next)
}

// finishWriteback undoes the demand-stat pollution of a writeback
// install (writeback installs are not demand accesses from the core's
// perspective) and counts cascade traffic.
func (h *Hierarchy) finishWriteback(c *cache.Cache, r cache.Result, next Level) {
	if r.Hit {
		c.Stats.Hits--
	} else {
		c.Stats.Misses--
		c.Stats.Fills--
	}
	if r.WroteBack {
		if next == DRAM {
			h.DRAMTraffic.WriteLines++
		} else {
			h.DRAMTraffic.WriteLines++ // LLC victim of an L2 writeback cascade
		}
	}
}

func (h *Hierarchy) writeCombine(addr uint64) {
	line := addr &^ uint64(cache.LineSize-1)
	for i := range h.pf.wcLines {
		if h.pf.wcValid[i] && h.pf.wcLines[i] == line {
			return // combined into an open WC entry
		}
	}
	h.pf.wcLines[h.pf.wcNext] = line
	h.pf.wcValid[h.pf.wcNext] = true
	h.pf.wcNext = (h.pf.wcNext + 1) % len(h.pf.wcLines)
	h.DRAMTraffic.WriteLines++
}

// observeStream feeds the L2 stream prefetcher with the L1-miss stream.
// On a detected ascending or descending stream it prefetches the next
// `degree` lines into L2 (and LLC if absent), counting DRAM traffic for
// lines not already on chip.
func (h *Hierarchy) observeStream(addr uint64) {
	if h.pf.degree == 0 || len(h.pf.lastUse) == 0 {
		return
	}
	line := addr >> cache.LineBits
	h.pf.clock++
	lastLine := h.pf.lastLine
	// Match scan: every match condition (advance, repeat, flip)
	// requires line within ±1 of lastLine, so one distance check
	// rejects non-matching streams before the per-condition compares.
	// Only lastLine is touched — never-allocated entries hold an
	// unreachable sentinel line and zero direction, so they can never
	// match and need no liveness check here.
	for i := range lastLine {
		if d := line - lastLine[i]; d+1 <= 2 {
			dir := h.pf.dir[i]
			if line == lastLine[i]+uint64(dir) || line == lastLine[i] {
				if line != lastLine[i] {
					h.pf.conf[i]++
					lastLine[i] = line
				}
				h.pf.lastUse[i] = h.pf.clock
				if h.pf.conf[i] >= 2 {
					h.issuePrefetches(line, dir)
				}
				return
			}
			if line == lastLine[i]-uint64(dir) { // direction flip candidate
				h.pf.dir[i] = -dir
				h.pf.conf[i] = 1
				lastLine[i] = line
				h.pf.lastUse[i] = h.pf.clock
				return
			}
		}
	}
	// No stream matched: allocate an entry — the first never-used slot
	// while the table is filling (streams are never invalidated, so
	// once full the empty-slot scan is skipped for good), else the LRU
	// victim (ascending scan, strict less-than: the first entry with
	// the minimal stamp, as the fused scalar scan chose).
	lastUse := h.pf.lastUse
	best := 0
	if h.pf.nvalid < len(lastUse) {
		for i := range lastUse {
			if lastUse[i] == 0 {
				best = i
				break
			}
		}
		h.pf.nvalid++
	} else {
		bestUse := ^uint64(0)
		for i := range lastUse {
			if use := lastUse[i]; use < bestUse {
				best = i
				bestUse = use
			}
		}
	}
	lastLine[best] = line
	h.pf.dir[best] = 1
	h.pf.conf[best] = 0
	lastUse[best] = h.pf.clock
}

func (h *Hierarchy) issuePrefetches(line uint64, dir int64) {
	for k := 1; k <= h.pf.degree; k++ {
		next := line + uint64(int64(k)*dir)
		addr := next << cache.LineBits
		// An advancing stream re-probes lines it prefetched one step
		// ago, so the slot cache usually confirms residency without the
		// way scan (Probe's only side effect is the re-verified MRU
		// hint, so skipping it is unobservable).
		slot := next & 63
		want := addr>>h.l2TagShift<<cache.MetaTagShift | cache.MetaValid
		if h.l2SlotLine[slot] == next && h.l2Meta[h.l2SlotIdx[slot]]&^cache.MetaDirty == want {
			continue
		}
		if h.L2c.Probe(addr) {
			s, w := h.L2c.LastTouched()
			h.l2SlotLine[slot] = next
			h.l2SlotIdx[slot] = int32(s*h.l2Ways + w)
			continue
		}
		// Prefetch's return value subsumes the Probe it used to follow
		// (present → no fill, absent → fill + DRAM read), and the L2
		// install skips its probe outright: the L2 Probe above already
		// established absence, and nothing touches L2 in between.
		if !h.LLCc.Prefetch(addr) {
			h.DRAMTraffic.ReadLines++
			h.DRAMTraffic.PrefetchLines++
		}
		h.L2c.PrefetchMiss(addr)
		s, w := h.L2c.LastTouched()
		h.l2SlotLine[slot] = next
		h.l2SlotIdx[slot] = int32(s*h.l2Ways + w)
	}
}

// RefKind distinguishes the demand reference types of the simulated
// machine. The zero value is a load.
type RefKind uint8

// Reference kinds carried by a batched stream.
const (
	RefLoad RefKind = iota
	RefStore
	RefStoreNT
)

// Ref is one memory reference in a batched stream.
type Ref struct {
	Addr uint64
	Kind RefKind
}

// Residency knowledge carried across consecutive references in a batch.
const (
	brNone = iota // nothing known about the previous reference's line
	brL1          // previous reference's line is L1-resident at l1Idx
	brWC          // previous reference was an NT store absorbed by an open WC entry
)

// AccessBatch resolves a stream of references, writing the servicing
// level of refs[i] into out[i] (out is grown if needed and returned
// with len(refs) entries — pass a reused buffer for zero allocations).
//
// It is counter-exact with the scalar Load/Store/StoreNT sequence: the
// simulated state after a batch — every hit/miss/eviction/writeback
// count, DRAM traffic, replacement metadata, prefetcher streams — is
// bit-identical to issuing the same references one at a time. Three
// amortizations make it faster, none of them observable:
//
//  1. Run-length coalescing: a reference to the same line as its
//     predecessor, when that line is known L1-resident, is a
//     guaranteed L1 hit whose only architectural effects are the hit
//     count and (for stores) the dirty bit — the Bit-PLRU touch of an
//     already-MRU way is a no-op, so it is skipped. Likewise an NT
//     store to the line an NT store just write-combined is absorbed
//     by the open WC entry with no state change at all.
//  2. Inlined L1 hit path: the tag probe runs against the packed
//     metadata words through cache.BatchView with a branch-light mask
//     Bit-PLRU update, avoiding per-reference calls; hits are folded
//     into L1 stats once per batch (sums commute with the miss path's
//     in-place corrections).
//  3. Hoisting: set masks, tag shifts, and way bounds are loaded once
//     per batch instead of per reference.
//
// Misses (and every reference when L1's policy is not mask Bit-PLRU,
// whose replacement updates cannot be replayed externally) fall back
// to the scalar methods, which remain the oracle.
func (h *Hierarchy) AccessBatch(refs []Ref, out []Level) []Level {
	if cap(out) < len(refs) {
		out = make([]Level, len(refs))
	}
	out = out[:len(refs)]
	v := h.L1c.BatchView()
	if v.PLRU == nil {
		for i, r := range refs {
			switch r.Kind {
			case RefStore:
				out[i] = h.access(r.Addr, true)
			case RefStoreNT:
				out[i] = h.StoreNT(r.Addr)
			default:
				out[i] = h.access(r.Addr, false)
			}
		}
		return out
	}

	meta := v.Meta
	plru := v.PLRU
	full := v.PLRUFull
	setMask := v.SetMask
	tagShift := cache.LineBits + v.SetBits
	ways := v.Ways
	reserved := v.Reserved

	const noLine = ^uint64(0)
	var hits uint64
	state := brNone
	curLine := noLine
	l1Idx := 0
	// A small direct-mapped cache of recently confirmed L1-resident
	// lines (line → metadata index). The hot loops interleave several
	// line streams (input / counter / C-Buffer; bin / accumulator), and
	// a slot hit replaces the full way scan with one metadata compare.
	// Slots are hints: a hit is trusted only after the packed word
	// re-verifies (valid + tag), so intervening evictions can never
	// fake a hit — they just fall back to the scan.
	var slotLine [16]uint64
	var slotIdx [16]int32
	for i := range slotLine {
		slotLine[i] = noLine
	}

	for i, r := range refs {
		line := r.Addr >> cache.LineBits
		if line == curLine {
			if state == brL1 {
				// Guaranteed L1 hit: nothing intervened since the last
				// reference left this line resident.
				if r.Kind != RefLoad {
					meta[l1Idx] |= cache.MetaDirty
				}
				hits++
				out[i] = L1
				continue
			}
			if state == brWC && r.Kind == RefStoreNT {
				out[i] = DRAM
				continue
			}
		}
		curLine = line

		set := int(line & setMask)
		want := r.Addr>>tagShift<<cache.MetaTagShift | cache.MetaValid
		base := set * ways
		slot := line & 15
		idx := -1
		if slotLine[slot] == line && meta[slotIdx[slot]]&^cache.MetaDirty == want {
			idx = int(slotIdx[slot])
		} else {
			for w := reserved; w < ways; w++ {
				if meta[base+w]&^cache.MetaDirty == want {
					idx = base + w
					slotLine[slot] = line
					slotIdx[slot] = int32(idx)
					break
				}
			}
		}
		if idx >= 0 {
			// L1 hit (a set holds at most one valid copy of a tag, so the
			// slot-verified way is the way the scalar find would return).
			l1Idx = idx
			if r.Kind != RefLoad {
				meta[idx] |= cache.MetaDirty
			}
			bit := uint16(1) << uint(idx-base)
			m := plru[set] | bit
			if m == full {
				m = bit
			}
			plru[set] = m
			hits++
			state = brL1
			out[i] = L1
			continue
		}

		// L1 miss (the inline probe is find() minus the MRU-filter
		// shortcut, which re-verifies the metadata word, so the scalar
		// path reaches the same verdict): hand off to the scalar miss
		// machinery — fill cascade, stream prefetcher, writeback
		// accounting — skipping only the L1 probe already performed.
		if r.Kind == RefStoreNT {
			lvl := h.StoreNTL1Missed(r.Addr)
			if lvl == DRAM {
				state = brWC // line sits in an open write-combining entry
			} else {
				state = brNone // resident at L2/LLC: no replayable fast path
			}
			out[i] = lvl
			continue
		}
		out[i] = h.AccessL1Missed(r.Addr, r.Kind == RefStore)
		// The demand fill left the line L1-resident; the cache's MRU
		// filter identifies exactly where.
		s, w := h.L1c.LastTouched()
		l1Idx = s*ways + w
		slotLine[slot] = line
		slotIdx[slot] = int32(l1Idx)
		state = brL1
	}
	h.L1c.AddBatchHits(hits)
	return out
}

// AccessL1Missed is the scalar demand path minus the L1 tag probe, for
// batched callers whose inline probe already established the L1 miss.
// Effects are identical to access() on a missing line: the L1 fill
// (and victim writeback) happens first, then the prefetcher observes
// the miss, then the walk continues down the hierarchy.
func (h *Hierarchy) AccessL1Missed(addr uint64, write bool) Level {
	if r := h.L1c.FillMiss(addr, write); r.WroteBack {
		h.installWriteback(h.L2c, r.VictimAddr, LLC)
	}
	h.observeStream(addr)
	line := addr >> cache.LineBits
	slot := line & 63
	want := addr>>h.l2TagShift<<cache.MetaTagShift | cache.MetaValid
	if h.l2SlotLine[slot] == line && h.l2Meta[h.l2SlotIdx[slot]]&^cache.MetaDirty == want {
		// Slot-verified L2 residency: apply Access's hit path directly,
		// skipping the way scan it would perform to find this line.
		set := int(line & h.l2SetMask)
		h.L2c.AccessHitAt(set, int(h.l2SlotIdx[slot])-set*h.l2Ways, false)
		return L1fillFrom(L2)
	}
	if r := h.L2c.Access(addr, false); r.Hit {
		s, w := h.L2c.LastTouched()
		h.l2SlotLine[slot] = line
		h.l2SlotIdx[slot] = int32(s*h.l2Ways + w)
		return L1fillFrom(L2)
	} else if r.WroteBack {
		h.installWriteback(h.LLCc, r.VictimAddr, DRAM)
	}
	if r := h.LLCc.Access(addr, false); r.Hit {
		return L1fillFrom(LLC)
	} else if r.WroteBack {
		h.DRAMTraffic.WriteLines++
	}
	h.DRAMTraffic.ReadLines++
	return DRAM
}

// StoreNTL1Missed is StoreNT minus the L1 probe (which, on a miss, has
// no side effects at all).
func (h *Hierarchy) StoreNTL1Missed(addr uint64) Level {
	if r := h.L2c.WriteNT(addr); r.Hit {
		return L2
	}
	if r := h.LLCc.WriteNT(addr); r.Hit {
		return LLC
	}
	h.writeCombine(addr)
	return DRAM
}

// MissSummary returns per-level demand misses for reporting.
func (h *Hierarchy) MissSummary() (l1, l2, llc uint64) {
	return h.L1c.Stats.Misses, h.L2c.Stats.Misses, h.LLCc.Stats.Misses
}

// String summarizes the hierarchy for logs.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("L1 %dKB/%dw %s | L2 %dKB/%dw %s | LLC %dMB/%dw %s",
		h.cfg.L1.SizeB>>10, h.cfg.L1.Ways, h.cfg.L1.Policy,
		h.cfg.L2.SizeB>>10, h.cfg.L2.Ways, h.cfg.L2.Policy,
		h.cfg.LLC.SizeB>>20, h.cfg.LLC.Ways, h.cfg.LLC.Policy)
}
