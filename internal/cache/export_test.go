package cache

// Test-only views of a level: nothing outside this package's tests
// invalidates single lines, flushes a level or counts its lines.

// UsableWays returns the ways available for normal allocation.
func (c *Cache) UsableWays() int { return c.ways - c.reserved }

// ReservedBytes returns the capacity withheld by the reservation.
func (c *Cache) ReservedBytes() int { return c.reserved * c.sets * LineSize }

// lineValid reports whether line i (set*ways+way) holds a valid line.
func (c *Cache) lineValid(i int) bool { return c.meta[i]&metaValid != 0 }

// lineDirty reports whether line i holds a dirty line.
func (c *Cache) lineDirty(i int) bool { return c.meta[i]&metaDirty != 0 }

// Invalidate drops addr's line if resident, returning whether it was
// dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	w := c.find(set, tag)
	if w < 0 {
		return false, false
	}
	i := set*c.ways + w
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
	c.lastSet = -1
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
