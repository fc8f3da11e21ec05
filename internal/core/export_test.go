package core

// Test-only views of a machine's C-Buffer levels.

// LevelBufs returns the number of C-Buffers at L1, L2, and LLC
// (after BinInit). The LLC count equals the number of in-memory bins.
func (m *Machine) LevelBufs() (l1, l2, llc int) {
	return m.lvl[lvlL1].numBufs, m.lvl[lvlL2].numBufs, m.lvl[lvlLLC].numBufs
}

// ResidentTuples counts tuples still buffered on chip (0 after flush).
func (m *Machine) ResidentTuples() int {
	n := 0
	for l := 0; l < numLvls; l++ {
		for _, b := range m.lvl[l].bufs {
			n += len(b)
		}
	}
	return n
}
