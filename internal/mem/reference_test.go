package mem

import (
	"fmt"
	"testing"

	"cobra/internal/cache"
)

// The reference walk the tests hold Hierarchy.Access to: the
// hierarchy's demand, writeback-install, prefetch and NT-store walk
// over hint-free reference levels. Each reference level keeps its lines
// as plain structs, finds a line by scanning the usable ways of its
// set, and carries its own copy of each replacement policy — Bit-PLRU
// as one boolean per line, DRRIP with set dueling and the aging-loop
// victim, TrueLRU by timestamps and Random by xorshift — so nothing of
// cache.Cache's packing, hints or policy code is shared. Only the
// prefetcher's stream table and the write-combining buffer (wcAndPf),
// which are not cache levels, are the hierarchy's own.

// refLine is one way of a reference level.
type refLine struct {
	tag          uint64
	valid, dirty bool
}

// refLevel is a hint-free reference cache level.
type refLevel struct {
	policy   cache.PolicyKind
	sets     int
	ways     int
	setBits  uint
	reserved int
	lines    []refLine // set*ways+way
	stats    cache.Stats

	mru   []bool   // Bit-PLRU: one MRU bit per line
	rrpv  []uint8  // DRRIP: per-line re-reference prediction
	psel  int      // DRRIP: set-dueling selector
	brrip uint32   // DRRIP: BRRIP inserts so far
	stamp []uint64 // TrueLRU: per-line last use
	clock uint64   // TrueLRU
	rnd   uint64   // Random: xorshift state
}

func newRefLevel(cfg cache.Config) *refLevel {
	sets := cfg.Sets()
	c := &refLevel{policy: cfg.Policy, sets: sets, ways: cfg.Ways}
	for 1<<c.setBits < sets {
		c.setBits++
	}
	c.lines = make([]refLine, sets*cfg.Ways)
	c.mru = make([]bool, len(c.lines))
	c.rrpv = make([]uint8, len(c.lines))
	c.stamp = make([]uint64, len(c.lines))
	c.reset()
	return c
}

func (c *refLevel) reset() {
	clear(c.lines)
	clear(c.mru)
	clear(c.stamp)
	for i := range c.rrpv {
		c.rrpv[i] = 3
	}
	c.reserved, c.psel, c.brrip, c.clock = 0, 0, 0, 0
	c.rnd = 0x2545F4914F6CDD1D
	c.stats = cache.Stats{}
}

func (c *refLevel) reserve(k int) {
	c.reserved = k
	for s := 0; s < c.sets; s++ {
		for w := 0; w < k; w++ {
			c.lines[s*c.ways+w] = refLine{}
		}
	}
}

func (c *refLevel) split(addr uint64) (set int, tag uint64) {
	line := addr / cache.LineSize
	return int(line % uint64(c.sets)), line >> c.setBits
}

// find returns the way holding addr's line, or -1.
func (c *refLevel) find(addr uint64) (set, way int) {
	set, tag := c.split(addr)
	for w := c.reserved; w < c.ways; w++ {
		if l := c.lines[set*c.ways+w]; l.valid && l.tag == tag {
			return set, w
		}
	}
	return set, -1
}

func (c *refLevel) touch(set, way int) {
	i := set*c.ways + way
	switch c.policy {
	case cache.BitPLRU:
		c.mru[i] = true
		for w := 0; w < c.ways; w++ {
			if !c.mru[set*c.ways+w] {
				return
			}
		}
		for w := 0; w < c.ways; w++ {
			c.mru[set*c.ways+w] = w == way
		}
	case cache.TrueLRU:
		c.clock++
		c.stamp[i] = c.clock
	case cache.DRRIP:
		c.rrpv[i] = 0
	}
}

func (c *refLevel) inserted(set, way int) {
	if c.policy != cache.DRRIP {
		c.touch(set, way)
		return
	}
	srrip := c.psel >= 0
	switch set % 64 {
	case 0:
		srrip = true
		c.psel = max(c.psel-1, -512)
	case 32:
		srrip = false
		c.psel = min(c.psel+1, 512)
	}
	rrpv := uint8(2)
	if !srrip {
		if c.brrip++; c.brrip%32 != 0 {
			rrpv = 3
		}
	}
	c.rrpv[set*c.ways+way] = rrpv
}

func (c *refLevel) victim(set int) int {
	base := set * c.ways
	switch c.policy {
	case cache.BitPLRU:
		for w := c.reserved; w < c.ways; w++ {
			if !c.mru[base+w] {
				return w
			}
		}
		return c.reserved
	case cache.TrueLRU:
		best := c.reserved
		for w := c.reserved + 1; w < c.ways; w++ {
			if c.stamp[base+w] < c.stamp[base+best] {
				best = w
			}
		}
		return best
	case cache.DRRIP:
		for {
			for w := c.reserved; w < c.ways; w++ {
				if c.rrpv[base+w] == 3 {
					return w
				}
			}
			for w := c.reserved; w < c.ways; w++ {
				c.rrpv[base+w]++
			}
		}
	default:
		c.rnd ^= c.rnd << 13
		c.rnd ^= c.rnd >> 7
		c.rnd ^= c.rnd << 17
		return c.reserved + int(c.rnd%uint64(c.ways-c.reserved))
	}
}

// fill installs addr's line in the first invalid usable way, else the
// victim's, and returns the address of a dirty line it displaced.
func (c *refLevel) fill(addr uint64, dirty bool) (victim uint64, wroteBack bool) {
	set, tag := c.split(addr)
	way := -1
	for w := c.reserved; w < c.ways; w++ {
		if !c.lines[set*c.ways+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.victim(set)
		old := c.lines[set*c.ways+way]
		c.stats.Evictions++
		if old.dirty {
			c.stats.Writebacks++
			victim, wroteBack = (old.tag<<c.setBits|uint64(set))*cache.LineSize, true
		}
	}
	c.lines[set*c.ways+way] = refLine{tag: tag, valid: true, dirty: dirty}
	c.inserted(set, way)
	return victim, wroteBack
}

func (c *refLevel) access(addr uint64, write bool) (hit bool, victim uint64, wroteBack bool) {
	if set, w := c.find(addr); w >= 0 {
		c.lines[set*c.ways+w].dirty = c.lines[set*c.ways+w].dirty || write
		c.touch(set, w)
		c.stats.Hits++
		return true, 0, false
	}
	c.stats.Misses++
	c.stats.Fills++
	victim, wroteBack = c.fill(addr, write)
	return false, victim, wroteBack
}

func (c *refLevel) writeback(addr uint64) (wroteBack bool) {
	if set, w := c.find(addr); w >= 0 {
		c.lines[set*c.ways+w].dirty = true
		c.touch(set, w)
		return false
	}
	_, wroteBack = c.fill(addr, true)
	return wroteBack
}

func (c *refLevel) prefetch(addr uint64) (present bool) {
	if _, w := c.find(addr); w >= 0 {
		return true
	}
	c.fill(addr, false)
	c.stats.Fills++
	return false
}

func (c *refLevel) writeNT(addr uint64) bool {
	set, w := c.find(addr)
	if w < 0 {
		return false
	}
	c.lines[set*c.ways+w].dirty = true
	c.touch(set, w)
	c.stats.Hits++
	return true
}

// refHierarchy is the reference walk over three reference levels.
type refHierarchy struct {
	l1, l2, llc *refLevel
	pf          wcAndPf
	traffic     Traffic
}

func newRef(cfg Config) *refHierarchy {
	return &refHierarchy{
		l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), llc: newRefLevel(cfg.LLC),
		pf: newWCAndPf(cfg.PrefetchStreams, cfg.PrefetchDegree),
	}
}

func (r *refHierarchy) levels() [3]*refLevel { return [3]*refLevel{r.l1, r.l2, r.llc} }

func (r *refHierarchy) reset() {
	for _, c := range r.levels() {
		c.reset()
	}
	r.pf.reset()
	r.traffic = Traffic{}
}

// access resolves one reference.
func (r *refHierarchy) access(addr uint64, kind RefKind) Level {
	if kind == RefStoreNT {
		switch {
		case r.l1.writeNT(addr):
			return L1
		case r.l2.writeNT(addr):
			return L2
		case r.llc.writeNT(addr):
			return LLC
		}
		if r.pf.combine(addr) {
			r.traffic.WriteLines++
		}
		return DRAM
	}
	if hit, victim, wb := r.l1.access(addr, kind == RefStore); hit {
		return L1
	} else if wb && r.l2.writeback(victim) {
		r.traffic.WriteLines++
	}
	line := addr / cache.LineSize
	if dir, ok := r.pf.observe(line); ok {
		for k := 1; k <= r.pf.degree; k++ {
			next := (line + uint64(int64(k)*dir)) * cache.LineSize
			if _, w := r.l2.find(next); w >= 0 {
				continue
			}
			if !r.llc.prefetch(next) {
				r.traffic.ReadLines++
				r.traffic.PrefetchLines++
			}
			r.l2.prefetch(next)
		}
	}
	if hit, victim, wb := r.l2.access(addr, false); hit {
		return L2
	} else if wb && r.llc.writeback(victim) {
		r.traffic.WriteLines++
	}
	if hit, _, wb := r.llc.access(addr, false); hit {
		return LLC
	} else if wb {
		r.traffic.WriteLines++
	}
	r.traffic.ReadLines++
	return DRAM
}

// replay resolves refs through the reference walk.
func (r *refHierarchy) replay(refs []Ref) []Level {
	out := make([]Level, len(refs))
	for i, ref := range refs {
		out[i] = r.access(ref.Addr, ref.Kind)
	}
	return out
}

// reserve reserves k ways of level lvl (0 L1, 1 L2, 2 LLC) in both
// the hierarchy and its reference.
func reserve(t *testing.T, h *Hierarchy, r *refHierarchy, lvl, k int) {
	t.Helper()
	if err := [3]*cache.Cache{&h.L1c, &h.L2c, &h.LLCc}[lvl].ReserveWays(k); err != nil {
		t.Fatal(err)
	}
	r.levels()[lvl].reserve(k)
}

// resident reports whether addr's line is valid in c.
func resident(c *cache.Cache, addr uint64) bool {
	set := int(addr / cache.LineSize % uint64(c.Sets()))
	for w := 0; w < c.Ways(); w++ {
		if a, valid, _ := c.Line(set, w); valid && a == addr&^(cache.LineSize-1) {
			return true
		}
	}
	return false
}

// checkSameState fails unless h holds the reference's simulated state:
// every level's counters, reservation and lines way by way (address,
// valid and dirty bits), the DRAM traffic, and the prefetcher's stream
// table and write-combining buffer. A wrong victim or a missed dirty
// bit shows up here at once; a missed replacement update shows at the
// next victim it changes.
func checkSameState(t *testing.T, what string, r *refHierarchy, h *Hierarchy) {
	t.Helper()
	if h.DRAMTraffic != r.traffic {
		t.Fatalf("%s: DRAM traffic %+v, reference %+v", what, h.DRAMTraffic, r.traffic)
	}
	for i, c := range [3]*cache.Cache{&h.L1c, &h.L2c, &h.LLCc} {
		ref, name := r.levels()[i], [3]string{"L1", "L2", "LLC"}[i]
		if c.Stats != ref.stats || c.ReservedWays() != ref.reserved {
			t.Fatalf("%s: %s stats %+v (%d reserved), reference %+v (%d reserved)",
				what, name, c.Stats, c.ReservedWays(), ref.stats, ref.reserved)
		}
		for s := 0; s < ref.sets; s++ {
			for w := 0; w < ref.ways; w++ {
				addr, valid, dirty := c.Line(s, w)
				l := ref.lines[s*ref.ways+w]
				if valid != l.valid || valid && (dirty != l.dirty || addr != (l.tag<<ref.setBits|uint64(s))*cache.LineSize) {
					t.Fatalf("%s: %s set %d way %d holds %s, reference %s", what, name, s, w,
						fmt.Sprint(addr, valid, dirty), fmt.Sprint((l.tag<<ref.setBits|uint64(s))*cache.LineSize, l.valid, l.dirty))
				}
			}
		}
	}
	if fmt.Sprint(h.pf) != fmt.Sprint(r.pf) {
		t.Fatalf("%s: prefetcher or write-combining state diverged", what)
	}
}
