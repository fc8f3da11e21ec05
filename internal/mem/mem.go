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

	// The levels are held by value, so the L1 hit path reaches L1's
	// fields straight from h.
	L1c  cache.Cache
	L2c  cache.Cache
	LLCc cache.Cache

	pf wcAndPf

	DRAMTraffic Traffic
}

// wcAndPf bundles the prefetcher stream table and the non-temporal
// write-combining buffer state.
type wcAndPf struct {
	// Stream table, struct-of-arrays: the detection scan in observe
	// runs on every L1 demand miss and touches only lastLine (two cache
	// lines at 16 streams) instead of a struct per stream. Entries are
	// allocated in index order and streams are never invalidated, so
	// entries [0, nvalid) are the live ones. Never-allocated entries
	// hold an unreachable sentinel lastLine (no line address reaches
	// 2^58), so the match scan needs no liveness check.
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
	return &Hierarchy{
		cfg:  cfg,
		L1c:  *cache.New(cfg.L1),
		L2c:  *cache.New(cfg.L2),
		LLCc: *cache.New(cfg.LLC),
		pf:   newWCAndPf(cfg.PrefetchStreams, cfg.PrefetchDegree),
	}
}

// newWCAndPf returns an empty stream table of n entries issuing degree
// prefetches per confirmed stream, and an empty write-combining buffer.
func newWCAndPf(n, degree int) wcAndPf {
	pf := wcAndPf{
		lastLine: make([]uint64, n),
		dir:      make([]int64, n),
		conf:     make([]int, n),
		prev:     make([]int, n),
		next:     make([]int, n),
		degree:   degree,
	}
	pf.reset()
	return pf
}

// reset empties the stream table and the write-combining buffer in
// place.
func (p *wcAndPf) reset() {
	for i := range p.lastLine {
		p.lastLine[i] = ^uint64(0) // sentinel: never matches a real line
		p.dir[i], p.conf[i], p.prev[i], p.next[i] = 0, 0, 0, 0
	}
	*p = wcAndPf{lastLine: p.lastLine, dir: p.dir, conf: p.conf, prev: p.prev, next: p.next, degree: p.degree}
}

// Reset restores the hierarchy to its post-New state so a recycled
// machine is indistinguishable from a fresh one: every cache level
// (lines, location hints, stats, replacement state, way reservation),
// the prefetcher's stream table, the write-combining buffer, and the
// DRAM traffic counts. A field added to Hierarchy must be restored here
// too; the sim package's recycling test compares a reset hierarchy
// against a new one field by field.
func (h *Hierarchy) Reset() {
	h.L1c.Reset()
	h.L2c.Reset()
	h.LLCc.Reset()
	h.pf.reset()
	h.DRAMTraffic = Traffic{}
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// WriteLineDirect models a full-line DRAM write that bypasses the cache
// hierarchy entirely (COBRA's LLC C-Buffer eviction writing a line-sized
// burst of tuples to an in-memory bin). lines counts 64 B units.
func (h *Hierarchy) WriteLineDirect(lines uint64) { h.DRAMTraffic.WriteLines += lines }

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
// it. A load or store is a demand access: an L1 hit ends it (a store
// dirties the line); a miss runs the levels' operations in this order:
// the L1 fill, the L1 victim's writeback install into L2, the
// prefetcher's observation of the miss, the L2 access, the L2 victim's
// install into the LLC, the LLC access (a dirty LLC victim is a DRAM
// write) and the DRAM read. An NT store updates the nearest resident
// copy, or else bypasses the caches and write-combines to DRAM; it
// allocates nowhere. The L1 hit on a line that sits where its location
// hint says is inlined here (cache.Cache's Hinted and HitAt).
func (h *Hierarchy) Access(addr uint64, kind RefKind) Level {
	if pos, ok := h.L1c.Hinted(addr); ok {
		h.L1c.HitAt(addr, pos, kind != RefLoad)
		return L1
	}
	if kind == RefStoreNT {
		return h.storeNT(addr)
	}
	hit, victim, dirty := h.L1c.Access(addr, kind == RefStore)
	if hit {
		return L1
	}
	if dirty {
		h.writeback(&h.L2c, victim)
	}
	if dir, ok := h.pf.observe(addr >> cache.LineBits); ok {
		h.issuePrefetches(addr>>cache.LineBits, dir)
	}
	if hit, victim, dirty = h.L2c.Access(addr, false); hit {
		return L2
	}
	if dirty {
		h.writeback(&h.LLCc, victim)
	}
	if hit, _, dirty = h.LLCc.Access(addr, false); hit {
		return LLC
	}
	if dirty {
		h.DRAMTraffic.WriteLines++
	}
	h.DRAMTraffic.ReadLines++
	return DRAM
}

// writeback installs a dirty victim from the level above into c. A
// dirty line it displaces in turn is counted as a DRAM write (the
// cascade stops there).
func (h *Hierarchy) writeback(c *cache.Cache, victim uint64) {
	if c.Writeback(victim) {
		h.DRAMTraffic.WriteLines++
	}
}

// storeNT performs a non-temporal store: the nearest resident copy is
// updated in place; otherwise the write bypasses the hierarchy and
// write-combines to DRAM. It returns the level charged.
func (h *Hierarchy) storeNT(addr uint64) Level {
	if h.L1c.WriteNT(addr) {
		return L1
	}
	if h.L2c.WriteNT(addr) {
		return L2
	}
	if h.LLCc.WriteNT(addr) {
		return LLC
	}
	if h.pf.combine(addr) {
		h.DRAMTraffic.WriteLines++
	}
	return DRAM
}

// combine merges an NT store to addr into the write-combining buffer
// and reports whether it opened a new entry, which costs a DRAM write.
func (p *wcAndPf) combine(addr uint64) bool {
	line := addr &^ uint64(cache.LineSize-1)
	for i := range p.wcLines {
		if p.wcValid[i] && p.wcLines[i] == line {
			return false // combined into an open WC entry
		}
	}
	p.wcLines[p.wcNext] = line
	p.wcValid[p.wcNext] = true
	p.wcNext = (p.wcNext + 1) % len(p.wcLines)
	return true
}

// observe feeds the L2 stream prefetcher with an L1 demand miss on
// line: it records the miss in the stream table and reports whether it
// confirms an ascending or descending stream, and in which direction
// (Access then prefetches the next `degree` lines).
func (p *wcAndPf) observe(line uint64) (dir int64, confirmed bool) {
	if p.degree == 0 || len(p.lastLine) == 0 {
		return 0, false
	}
	lastLine := p.lastLine
	// Match scan: every match condition (advance, repeat, flip)
	// requires line within ±1 of lastLine, so one distance check
	// rejects non-matching streams before the per-condition compares.
	// Only lastLine is touched — never-allocated entries hold an
	// unreachable sentinel line and zero direction, so they can never
	// match and need no liveness check here.
	for i := range lastLine {
		if d := line - lastLine[i]; d+1 <= 2 {
			dir := p.dir[i]
			if line == lastLine[i]+uint64(dir) || line == lastLine[i] {
				if line != lastLine[i] {
					p.conf[i]++
					lastLine[i] = line
				}
				p.touch(i)
				return dir, p.conf[i] >= 2
			}
			if line == lastLine[i]-uint64(dir) { // direction flip candidate
				p.dir[i] = -dir
				p.conf[i] = 1
				lastLine[i] = line
				p.touch(i)
				return 0, false
			}
		}
	}
	// No stream matched: allocate an entry — the next never-used one
	// while the table is filling, else the least recently used.
	best := p.tail
	if n := p.nvalid; n < len(lastLine) {
		best = n
		if n > 0 {
			p.next[n] = p.head
			p.prev[p.head] = n
			p.head = n
		}
		p.nvalid++
	} else {
		p.touch(best)
	}
	lastLine[best] = line
	p.dir[best] = 1
	p.conf[best] = 0
	return 0, false
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
// dir into L2 and, for a line L2 lacks, into the LLC, whose absence is
// a DRAM read. A dirty victim of either fill counts in its level's
// Writebacks but goes nowhere. An advancing stream re-probes lines it
// prefetched a step ago, so L2's inlined hint probe usually finds them
// first: a line there is present, and Prefetch would change nothing.
func (h *Hierarchy) issuePrefetches(line uint64, dir int64) {
	for k := 1; k <= h.pf.degree; k++ {
		addr := (line + uint64(int64(k)*dir)) << cache.LineBits
		if _, ok := h.L2c.Hinted(addr); ok || h.L2c.Prefetch(addr) || h.LLCc.Prefetch(addr) {
			continue
		}
		h.DRAMTraffic.ReadLines++
		h.DRAMTraffic.PrefetchLines++
	}
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
