package mem

// Test-only hooks: nothing outside this package's tests reads a line
// around the caches, or names a reference kind by its own method.

// ReadLineDirect models a full-line DRAM read bypassing the caches.
func (h *Hierarchy) ReadLineDirect(lines uint64) { h.DRAMTraffic.ReadLines += lines }

// Load performs a demand load and returns the servicing level.
func (h *Hierarchy) Load(addr uint64) Level { return h.Access(addr, RefLoad) }

// Store performs a demand store (write-allocate) and returns the
// servicing level.
func (h *Hierarchy) Store(addr uint64) Level { return h.Access(addr, RefStore) }

// StoreNT performs a non-temporal store and returns the level charged.
func (h *Hierarchy) StoreNT(addr uint64) Level { return h.Access(addr, RefStoreNT) }
