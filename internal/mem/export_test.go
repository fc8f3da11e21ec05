package mem

// Test-only hooks: nothing outside this package's tests reads a line
// around the caches.

// ReadLineDirect models a full-line DRAM read bypassing the caches.
func (h *Hierarchy) ReadLineDirect(lines uint64) { h.DRAMTraffic.ReadLines += lines }
