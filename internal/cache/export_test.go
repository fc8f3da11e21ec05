package cache

// Test-only views of a level: nothing outside this package's tests
// probes a line without touching it, invalidates single lines, flushes
// a level or counts its lines.

// UsableWays returns the ways available for normal allocation.
func (c *Cache) UsableWays() int { return c.ways - c.reserved }

// ReservedBytes returns the capacity withheld by the reservation.
func (c *Cache) ReservedBytes() int { return c.reserved * c.Sets() * LineSize }

// lineValid reports whether line i (set*ways+way) holds a valid line.
func (c *Cache) lineValid(i int) bool { return c.meta[i]&metaValid != 0 }

// lineDirty reports whether line i holds a dirty line.
func (c *Cache) lineDirty(i int) bool { return c.meta[i]&metaDirty != 0 }

// Probe reports whether addr's line is resident, without simulated side
// effects.
func (c *Cache) Probe(addr uint64) bool {
	line, _, base, want := c.locate(addr)
	return c.find(line, base, want) >= 0
}

// Invalidate drops addr's line if resident, returning whether it was
// dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	line, _, base, want := c.locate(addr)
	w := c.find(line, base, want)
	if w < 0 {
		return false, false
	}
	i := base + w
	d := c.meta[i]&metaDirty != 0
	c.meta[i] = 0
	return true, d
}

// FlushAll invalidates every line, returning how many dirty lines were
// dropped.
func (c *Cache) FlushAll() (dirtyLines int) {
	for i, m := range c.meta {
		if m&(metaValid|metaDirty) == metaValid|metaDirty {
			dirtyLines++
		}
		c.meta[i] = 0
	}
	return dirtyLines
}

// OccupiedLines counts valid lines.
func (c *Cache) OccupiedLines() int {
	n := 0
	for _, m := range c.meta {
		if m&metaValid != 0 {
			n++
		}
	}
	return n
}
