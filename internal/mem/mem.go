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

// Location-hint table sizes: one way byte per line of Table II's 32 KB
// L1 and 256 KB L2. Powers of two, so a line's slot is line & (n-1).
// Any Config stays exact with them; a smaller or larger cache only
// changes how often a hint hits.
const (
	l1Hints = 512
	l2Hints = 4096
)

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

	// scalar puts Access on the scalar walk (Load, Store, StoreNT):
	// always when L1 or L2 is not mask Bit-PLRU or the LLC is not DRRIP
	// (Table II's policies are the only ones the fast walk replays
	// outside package cache), and otherwise only after ScalarWalk.
	scalar bool

	// L1 state the fast walk reads and updates in place, taken once from
	// L1's BatchView (both slices are L1's own arrays for its whole
	// life), as for L2 below. The walk reads L1's way reservation live.
	l1Meta     []uint64
	l1PLRU     []uint16
	l1Full     uint16
	l1SetMask  uint64
	l1TagShift uint
	l1Ways     int

	// Verified location hints over the L1 metadata: a direct-mapped
	// table of the ways recently confirmed L1-resident lines sit in, one
	// slot per line of Table II's L1 (line & (l1Hints-1)). The hot loops
	// interleave several line streams (input / counter / C-Buffer; bin /
	// accumulator), and a hint hit replaces the way scan with one
	// metadata compare. A set plus a tag names a line, so the hint is
	// trusted only after the live metadata word at (set(line), way)
	// re-verifies (valid + tag): evictions, reservations, resets and
	// scalar calls made since it was recorded, and a slot another line
	// last wrote, can never fake a hit; they just fall back to the scan.
	// A reserved way's metadata is zero, so a verified way is always a
	// usable one.
	l1HintWay [l1Hints]uint8

	// The same over the L2 metadata, one slot per line of Table II's L2
	// (line & (l2Hints-1)), shared by the fast walk's misses (demand
	// lookups and L1-victim writeback installs) and the prefetcher's
	// residency probes and fills.
	l2HintWay [l2Hints]uint8

	// L2 state the fast walk's misses read and update in place, taken
	// once from L2's BatchView (both slices are L2's own arrays for its
	// whole life). They are fields, not a per-miss BatchView() call,
	// which would copy the view struct on every miss. The walk reads
	// L2's way reservation live, as it changes mid-run.
	l2Meta     []uint64 // packed metadata
	l2PLRU     []uint16 // Bit-PLRU masks; nil unless L2 is mask Bit-PLRU
	l2Full     uint16   // mask with every way's bit set
	l2SetMask  uint64
	l2TagShift uint
	l2Ways     int

	// LLC state the fast walk's L2 misses, L2 victims, prefetches and
	// NT stores read and update in place, taken once from the LLC's
	// BatchView: the packed metadata and the DRRIP state, both the
	// LLC's own for its whole life. The walk reads the LLC's way
	// reservation live.
	llcMeta     []uint64
	llcRRIP     *cache.RRIP // nil unless the LLC is DRRIP
	llcSetMask  uint64
	llcTagShift uint
	llcWays     int

	DRAMTraffic Traffic
}

// wcAndPf bundles the prefetcher stream table and the non-temporal
// write-combining buffer state.
type wcAndPf struct {
	// Stream table, struct-of-arrays: the detection scan in
	// observeStream runs on every L1 demand miss and touches only
	// lastLine (two cache lines at 16 streams) instead of a struct per
	// stream. Entries are allocated in index order and streams are
	// never invalidated, so entries [0, nvalid) are the live ones.
	// Never-allocated entries hold an unreachable sentinel lastLine (no
	// line address reaches 2^58), so the match scan needs no liveness
	// check.
	lastLine []uint64
	dir      []int64 // +1 or -1
	conf     []int
	degree   int
	nvalid   int // live entries; never decreases

	// Recency order of the live entries, a doubly linked list from
	// head (most recently used) to tail (least recently used, the
	// entry a new stream replaces once the table is full). Each
	// observation uses exactly one entry, so this is the order of
	// their last uses. With one live entry, head = tail = 0: the zero
	// value.
	prev, next []int
	head, tail int

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
	h.pf.dir = make([]int64, cfg.PrefetchStreams)
	h.pf.prev = make([]int, cfg.PrefetchStreams)
	h.pf.next = make([]int, cfg.PrefetchStreams)
	h.pf.conf = make([]int, cfg.PrefetchStreams)
	l1v := h.L1c.BatchView()
	h.l1Meta = l1v.Meta
	h.l1PLRU = l1v.PLRU
	h.l1Full = l1v.PLRUFull
	h.l1SetMask = l1v.SetMask
	h.l1TagShift = cache.LineBits + l1v.SetBits
	h.l1Ways = l1v.Ways
	l2v := h.L2c.BatchView()
	h.l2Meta = l2v.Meta
	h.l2PLRU = l2v.PLRU
	h.l2Full = l2v.PLRUFull
	h.l2SetMask = l2v.SetMask
	h.l2TagShift = cache.LineBits + l2v.SetBits
	h.l2Ways = l2v.Ways
	llcv := h.LLCc.BatchView()
	h.llcMeta = llcv.Meta
	h.llcRRIP = llcv.RRIP
	h.llcSetMask = llcv.SetMask
	h.llcTagShift = cache.LineBits + llcv.SetBits
	h.llcWays = llcv.Ways
	h.scalar = h.l1PLRU == nil || h.l2PLRU == nil || h.llcRRIP == nil
	h.pf.degree = cfg.PrefetchDegree
	return h
}

// ScalarWalk puts h on the scalar walk for good: from now on Access
// resolves every reference through Load, Store or StoreNT, entirely
// through cache.Cache. It is the oracle the differential tests hold
// the fast walk to; a run on it produces the same simulated state,
// only slower.
func (h *Hierarchy) ScalarWalk() { h.scalar = true }

// Reset restores the hierarchy to its post-New state so a recycled
// machine is indistinguishable from a fresh one: every cache level
// (lines, stats, replacement state, way reservation), the prefetcher's
// stream table, the write-combining buffer, the L1 and L2 location
// hints, and the DRAM traffic counts. It keeps the walk Access takes
// (ScalarWalk). A field added to Hierarchy must be restored here too;
// the sim package's recycling test compares a reset hierarchy against
// a new one field by field.
func (h *Hierarchy) Reset() {
	h.L1c.Reset()
	h.L2c.Reset()
	h.LLCc.Reset()
	pf := &h.pf
	for i := range pf.lastLine {
		pf.lastLine[i] = ^uint64(0)
		pf.dir[i], pf.conf[i], pf.prev[i], pf.next[i] = 0, 0, 0, 0
	}
	h.pf = wcAndPf{lastLine: pf.lastLine, dir: pf.dir, conf: pf.conf, prev: pf.prev, next: pf.next, degree: pf.degree}
	h.l1HintWay = [l1Hints]uint8{}
	h.l2HintWay = [l2Hints]uint8{}
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

// access is the scalar demand walk, entirely through cache.Cache: the
// reference Access's fast walk must match.
func (h *Hierarchy) access(addr uint64, write bool) Level {
	if r := h.L1c.Access(addr, write); r.Hit {
		return L1
	} else if r.WroteBack {
		h.installWriteback(h.L2c, r.VictimAddr)
	}
	// L1 miss: probe L2 (prefetcher observes the L1-miss stream).
	h.observeStream(addr, false)
	if r := h.L2c.Access(addr, false); r.Hit {
		return L2
	} else if r.WroteBack {
		h.installWriteback(h.LLCc, r.VictimAddr)
	}
	return h.accessLLC(addr)
}

// accessLLC is the scalar demand walk's last step: the LLC lookup
// (filling on a miss; a dirty LLC victim is a DRAM write) and, past it,
// the DRAM read.
func (h *Hierarchy) accessLLC(addr uint64) Level {
	if r := h.LLCc.Access(addr, false); r.Hit {
		return LLC
	} else if r.WroteBack {
		h.DRAMTraffic.WriteLines++
	}
	h.DRAMTraffic.ReadLines++
	return DRAM
}

// installWriteback installs a dirty victim from the level above into c.
// Writeback installs are not demand accesses from the core's
// perspective, so the access's hit or miss/fill counts are undone. A
// dirty line it displaces in turn is counted as a DRAM write (the
// cascade stops there).
func (h *Hierarchy) installWriteback(c *cache.Cache, victim uint64) {
	r := c.Access(victim, true)
	if r.Hit {
		c.Stats.Hits--
	} else {
		c.Stats.Misses--
		c.Stats.Fills--
	}
	if r.WroteBack {
		h.DRAMTraffic.WriteLines++
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
// lines not already on chip. fast says which walk observed the miss.
func (h *Hierarchy) observeStream(addr uint64, fast bool) {
	if h.pf.degree == 0 || len(h.pf.lastLine) == 0 {
		return
	}
	line := addr >> cache.LineBits
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
				h.pf.touch(i)
				if h.pf.conf[i] >= 2 {
					h.issuePrefetches(line, dir, fast)
				}
				return
			}
			if line == lastLine[i]-uint64(dir) { // direction flip candidate
				h.pf.dir[i] = -dir
				h.pf.conf[i] = 1
				lastLine[i] = line
				h.pf.touch(i)
				return
			}
		}
	}
	// No stream matched: allocate an entry — the next never-used one
	// while the table is filling, else the least recently used.
	best := h.pf.tail
	if n := h.pf.nvalid; n < len(lastLine) {
		best = n
		if n > 0 {
			h.pf.next[n] = h.pf.head
			h.pf.prev[h.pf.head] = n
			h.pf.head = n
		}
		h.pf.nvalid++
	} else {
		h.pf.touch(best)
	}
	lastLine[best] = line
	h.pf.dir[best] = 1
	h.pf.conf[best] = 0
}

// touch makes live stream entry i the most recently used.
func (p *wcAndPf) touch(i int) {
	if i == p.head {
		return
	}
	pr := p.prev[i]
	if i == p.tail {
		p.tail = pr
	} else {
		p.prev[p.next[i]] = pr
	}
	p.next[pr] = p.next[i]
	p.next[i] = p.head
	p.prev[p.head] = i
	p.head = i
}

// issuePrefetches prefetches the `degree` lines past line in direction
// dir into L2 (and the LLC if absent). The fast walk (fast) fills the
// LLC and L2 inline; the scalar walk fills them through Prefetch and
// PrefetchMiss, the oracle.
func (h *Hierarchy) issuePrefetches(line uint64, dir int64, fast bool) {
	for k := 1; k <= h.pf.degree; k++ {
		next := line + uint64(int64(k)*dir)
		addr := next << cache.LineBits
		// L2 residency through the hinted lookup: an advancing
		// stream re-probes lines it prefetched one step ago, so a hint
		// usually confirms them without the way scan. (It is L2c.Probe
		// minus Probe's only side effect, the cache's MRU filter, which
		// is itself a hint.)
		set := int(next & h.l2SetMask)
		base := set * h.l2Ways
		want := addr>>h.l2TagShift<<cache.MetaTagShift | cache.MetaValid
		if h.l2Find(next, want, base) >= 0 {
			continue
		}
		// Prefetch's return value subsumes an LLC Probe (present → no
		// fill, absent → fill + DRAM read), and the L2 install skips
		// its probe outright: the lookup above established absence, and
		// nothing touches L2 in between. The fast walk does both inline;
		// the scalar walk calls LLCc.Prefetch and L2c.PrefetchMiss, the
		// oracle. Both drop a dirty victim of either fill: it counts in
		// the level's Writebacks but goes nowhere.
		var present bool
		if fast {
			present = h.llcPrefetch(addr)
		} else {
			present = h.LLCc.Prefetch(addr)
		}
		if !present {
			h.DRAMTraffic.ReadLines++
			h.DRAMTraffic.PrefetchLines++
		}
		if !fast {
			h.L2c.PrefetchMiss(addr)
			continue
		}
		h.l2Fill(next, want, set, base)
		h.L2c.Stats.Fills++
	}
}

// RefKind distinguishes the demand reference types of the simulated
// machine. The zero value is a load.
type RefKind uint8

// Reference kinds.
const (
	RefLoad RefKind = iota
	RefStore
	RefStoreNT
)

// Ref is one memory reference of an AccessBatch stream.
type Ref struct {
	Addr uint64
	Kind RefKind
}

// AccessBatch resolves a stream of references through Access, writing
// the servicing level of refs[i] into out[i] (out is grown if needed
// and returned with len(refs) entries — pass a reused buffer for zero
// allocations).
func (h *Hierarchy) AccessBatch(refs []Ref, out []Level) []Level {
	if cap(out) < len(refs) {
		out = make([]Level, len(refs))
	}
	out = out[:len(refs)]
	for i, r := range refs {
		out[i] = h.Access(r.Addr, r.Kind)
	}
	return out
}

// Access resolves one reference and returns the level that serviced
// it. It is counter-exact with the scalar Load, Store and StoreNT:
// every hit, miss, eviction and writeback count, the DRAM traffic, the
// line metadata, the replacement state and the prefetcher streams end
// up bit-identical to the scalar call's. Four things make it faster,
// none of them observable:
//
//  1. Verified L1 hints: a reference to a recently confirmed line
//     skips the way scan (see l1HintWay).
//  2. Inlined L1: the tag probe, the hit's dirty bit and Bit-PLRU
//     touch, and the miss's fill run against L1's packed metadata and
//     masks, with no call into package cache and no cache.Result.
//  3. Inlined L2 below an L1 miss: the L1 victim's writeback install,
//     the L2 lookup or fill, the prefetcher's L2 probes and fills, and
//     an NT store's L2 update run against L2's packed metadata and
//     masks, with verified hints of their own (see l2HintWay).
//  4. Inlined LLC below an L2 miss: the demand lookup or fill, the L2
//     victim's writeback install, the prefetcher's LLC fill and an NT
//     store's LLC update run against the LLC's packed metadata and the
//     DRRIP state its BatchView shares.
//
// When L1 or L2 is not mask Bit-PLRU, the LLC is not DRRIP (ablation
// A2), or after ScalarWalk, every reference takes the scalar methods,
// which remain the oracle.
func (h *Hierarchy) Access(addr uint64, kind RefKind) Level {
	if h.scalar {
		return h.accessScalar(addr, kind)
	}
	line := addr >> cache.LineBits
	want := addr>>h.l1TagShift<<cache.MetaTagShift | cache.MetaValid
	set := int(line & h.l1SetMask)
	if idx := set*h.l1Ways + int(h.l1HintWay[line&(l1Hints-1)]); h.l1Meta[idx]&^cache.MetaDirty == want {
		h.l1Hit(idx, set, kind)
		return L1
	}
	return h.accessL1(addr, line, want, kind)
}

// l1Hit applies an L1 hit on metadata index idx of set: the dirty bit
// of a store, the Bit-PLRU touch and the hit count. (A set holds at
// most one valid copy of a tag, so a hint-verified or scanned way is
// the way the scalar find would return.)
func (h *Hierarchy) l1Hit(idx, set int, kind RefKind) {
	if kind != RefLoad {
		h.l1Meta[idx] |= cache.MetaDirty
	}
	h.l1PLRU[set] = cache.PLRUTouch(h.l1PLRU[set], uint16(1)<<uint(idx-set*h.l1Ways), h.l1Full)
	h.L1c.Stats.Hits++
}

// accessL1 is Access past a missed hint: the scan of line's L1 set
// (want is its valid metadata word), which records a hint on a hit,
// and on a miss the fill and the walk below L1.
func (h *Hierarchy) accessL1(addr, line, want uint64, kind RefKind) Level {
	meta := h.l1Meta
	slot := line & (l1Hints - 1)
	set := int(line & h.l1SetMask)
	base := set * h.l1Ways
	row := meta[base : base+h.l1Ways]
	for w := h.L1c.ReservedWays(); w < len(row); w++ {
		if row[w]&^cache.MetaDirty == want {
			h.l1HintWay[slot] = uint8(w)
			h.l1Hit(base+w, set, kind)
			return L1
		}
	}

	// L1 miss (the inline probe is find() minus the MRU-filter
	// shortcut, which re-verifies the metadata word, so the scalar
	// path reaches the same verdict).
	if kind == RefStoreNT {
		return h.storeNTL2(addr)
	}
	// Demand fill, as cache.Cache's fill. (The skipped MRU-filter
	// update is a hint, re-verified on every use.)
	l1 := &h.L1c.Stats
	way := cache.PLRUFillWay(meta[base:base+h.l1Ways], h.l1PLRU[set], h.l1Full, h.L1c.ReservedWays())
	victim, wroteBack := uint64(0), false
	if old := meta[base+way]; old&cache.MetaValid != 0 {
		l1.Evictions++
		if old&cache.MetaDirty != 0 {
			l1.Writebacks++
			victim, wroteBack = old>>cache.MetaTagShift<<h.l1TagShift|uint64(set)<<cache.LineBits, true
		}
	}
	if kind == RefStore {
		want |= cache.MetaDirty
	}
	meta[base+way] = want
	h.l1PLRU[set] = cache.PLRUTouch(h.l1PLRU[set], uint16(1)<<uint(way), h.l1Full)
	h.l1HintWay[slot] = uint8(way)
	l1.Misses++
	l1.Fills++
	// The rest of the scalar walk, in its order: the L1 victim's
	// writeback, the prefetcher, then L2 and below. None of it touches
	// L1.
	if wroteBack {
		h.l2Writeback(victim)
	}
	h.observeStream(addr, true)
	return h.l2Demand(addr)
}

// accessScalar resolves one reference through the scalar methods.
func (h *Hierarchy) accessScalar(addr uint64, kind RefKind) Level {
	switch kind {
	case RefStore:
		return h.access(addr, true)
	case RefStoreNT:
		return h.StoreNT(addr)
	default:
		return h.access(addr, false)
	}
}

// l2Demand is the demand walk below an L1 miss, with L2 and the LLC
// inline: a hit is a Bit-PLRU touch; a miss fills L2, installs a dirty
// L2 victim in the LLC, and goes on to the LLC — what L2c.Access and
// the scalar walk's tail do.
func (h *Hierarchy) l2Demand(addr uint64) Level {
	line := addr >> cache.LineBits
	set := int(line & h.l2SetMask)
	base := set * h.l2Ways
	want := addr>>h.l2TagShift<<cache.MetaTagShift | cache.MetaValid
	if idx := h.l2Find(line, want, base); idx >= 0 {
		h.l2Touch(set, idx-base)
		h.L2c.Stats.Hits++
		return L2
	}
	h.L2c.Stats.Misses++
	h.L2c.Stats.Fills++
	if victim, dirty := h.l2Fill(line, want, set, base); dirty {
		h.llcWriteback(victim)
	}
	return h.llcDemand(addr)
}

// l2Writeback is installWriteback(L2c, victim) with L2 inline: a
// resident copy turns dirty and is touched; otherwise the line fills
// dirty, and a dirty line it displaces is a DRAM write. Neither case
// counts a demand hit, miss, or fill.
func (h *Hierarchy) l2Writeback(victim uint64) {
	line := victim >> cache.LineBits
	set := int(line & h.l2SetMask)
	base := set * h.l2Ways
	want := victim>>h.l2TagShift<<cache.MetaTagShift | cache.MetaValid
	if idx := h.l2Find(line, want, base); idx >= 0 {
		h.l2Meta[idx] |= cache.MetaDirty
		h.l2Touch(set, idx-base)
		return
	}
	if _, dirty := h.l2Fill(line, want|cache.MetaDirty, set, base); dirty {
		h.DRAMTraffic.WriteLines++
	}
}

// l2Find returns the L2 metadata index holding line (want is its valid
// metadata word, base its set's first index), or -1 when absent: a
// verified hint, else the scan over L2's usable ways (the reservation
// is read live), which records a hint. It has no simulated side
// effects.
func (h *Hierarchy) l2Find(line, want uint64, base int) int {
	slot := line & (l2Hints - 1)
	if idx := base + int(h.l2HintWay[slot]); h.l2Meta[idx]&^cache.MetaDirty == want {
		return idx
	}
	row := h.l2Meta[base : base+h.l2Ways]
	for w := h.L2c.ReservedWays(); w < len(row); w++ {
		if row[w]&^cache.MetaDirty == want {
			h.l2HintWay[slot] = uint8(w)
			return base + w
		}
	}
	return -1
}

// l2Fill installs metadata word m for line in L2 set set as cache.Cache's
// fill does, counting the eviction and writeback but not the fill
// (writeback installs do not count one). It returns the address of a
// dirty line it displaced, if any, and records a hint for line.
func (h *Hierarchy) l2Fill(line, m uint64, set, base int) (victim uint64, dirty bool) {
	row := h.l2Meta[base : base+h.l2Ways]
	way := cache.PLRUFillWay(row, h.l2PLRU[set], h.l2Full, h.L2c.ReservedWays())
	if old := row[way]; old&cache.MetaValid != 0 {
		h.L2c.Stats.Evictions++
		if old&cache.MetaDirty != 0 {
			h.L2c.Stats.Writebacks++
			victim, dirty = old>>cache.MetaTagShift<<h.l2TagShift|uint64(set)<<cache.LineBits, true
		}
	}
	row[way] = m
	h.l2Touch(set, way)
	h.l2HintWay[line&(l2Hints-1)] = uint8(way)
	return victim, dirty
}

// l2Touch is L2's Bit-PLRU touch of (set, way).
func (h *Hierarchy) l2Touch(set, way int) {
	h.l2PLRU[set] = cache.PLRUTouch(h.l2PLRU[set], uint16(1)<<uint(way), h.l2Full)
}

// storeNTL2 is StoreNT below a missed L1 probe (which, on a miss, has
// no side effects at all), with L2 and the LLC inline: a resident L2
// copy turns dirty and is touched, and counts a hit, as L2c.WriteNT
// does.
func (h *Hierarchy) storeNTL2(addr uint64) Level {
	line := addr >> cache.LineBits
	set := int(line & h.l2SetMask)
	base := set * h.l2Ways
	if idx := h.l2Find(line, addr>>h.l2TagShift<<cache.MetaTagShift|cache.MetaValid, base); idx >= 0 {
		h.l2Meta[idx] |= cache.MetaDirty
		h.l2Touch(set, idx-base)
		h.L2c.Stats.Hits++
		return L2
	}
	// A resident LLC copy turns dirty and counts a hit, as LLCc.WriteNT
	// does; absence has no side effects.
	set, base, want := h.llcLine(addr)
	if idx := h.llcFind(want, base); idx >= 0 {
		h.llcMeta[idx] |= cache.MetaDirty
		h.llcRRIP.Hit(set, idx-base)
		h.LLCc.Stats.Hits++
		return LLC
	}
	h.writeCombine(addr)
	return DRAM
}

// llcLine returns addr's LLC set, the set's first metadata index, and
// the line's valid metadata word.
func (h *Hierarchy) llcLine(addr uint64) (set, base int, want uint64) {
	set = int(addr >> cache.LineBits & h.llcSetMask)
	return set, set * h.llcWays, addr>>h.llcTagShift<<cache.MetaTagShift | cache.MetaValid
}

// llcFind returns the LLC metadata index holding the line whose valid
// metadata word is want (base is its set's first index), or -1 when
// absent: a scan of the LLC's usable ways (the reservation is read
// live), with no simulated side effects.
func (h *Hierarchy) llcFind(want uint64, base int) int {
	row := h.llcMeta[base : base+h.llcWays]
	for w := h.LLCc.ReservedWays(); w < len(row); w++ {
		if row[w]&^cache.MetaDirty == want {
			return base + w
		}
	}
	return -1
}

// llcFill installs metadata word m in LLC set set (base its first
// index) as cache.Cache's fill does — the first invalid usable way,
// else the DRRIP victim, then the DRRIP insertion — counting the
// eviction and writeback but not the fill. It reports whether the line
// it displaced was dirty.
func (h *Hierarchy) llcFill(m uint64, set, base int) (dirty bool) {
	row := h.llcMeta[base : base+h.llcWays]
	way := h.llcRRIP.FillWay(row, set, h.LLCc.ReservedWays())
	if old := row[way]; old&cache.MetaValid != 0 {
		h.LLCc.Stats.Evictions++
		if old&cache.MetaDirty != 0 {
			h.LLCc.Stats.Writebacks++
			dirty = true
		}
	}
	row[way] = m
	h.llcRRIP.Fill(set, way)
	return dirty
}

// llcDemand is accessLLC with the LLC inline: a hit is a DRRIP hit; a
// miss fills (a dirty LLC victim is a DRAM write) and reads DRAM.
func (h *Hierarchy) llcDemand(addr uint64) Level {
	set, base, want := h.llcLine(addr)
	if idx := h.llcFind(want, base); idx >= 0 {
		h.llcRRIP.Hit(set, idx-base)
		h.LLCc.Stats.Hits++
		return LLC
	}
	h.LLCc.Stats.Misses++
	h.LLCc.Stats.Fills++
	if h.llcFill(want, set, base) {
		h.DRAMTraffic.WriteLines++
	}
	h.DRAMTraffic.ReadLines++
	return DRAM
}

// llcWriteback is installWriteback(LLCc, victim) with the LLC inline: a
// resident copy turns dirty and takes a DRRIP hit; otherwise the line
// fills dirty, and a dirty line it displaces is a DRAM write. Neither
// case counts a demand hit, miss, or fill.
func (h *Hierarchy) llcWriteback(victim uint64) {
	set, base, want := h.llcLine(victim)
	if idx := h.llcFind(want, base); idx >= 0 {
		h.llcMeta[idx] |= cache.MetaDirty
		h.llcRRIP.Hit(set, idx-base)
		return
	}
	if h.llcFill(want|cache.MetaDirty, set, base) {
		h.DRAMTraffic.WriteLines++
	}
}

// llcPrefetch is LLCc.Prefetch with the LLC inline: it reports whether
// addr's line is resident, which changes nothing, and otherwise fills
// it, counting the fill and dropping a dirty victim as Prefetch does.
func (h *Hierarchy) llcPrefetch(addr uint64) (present bool) {
	set, base, want := h.llcLine(addr)
	if h.llcFind(want, base) >= 0 {
		return true
	}
	h.llcFill(want, set, base)
	h.LLCc.Stats.Fills++
	return false
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
