package cpu

// Test-only core views and the dependent load: the simulated kernels
// issue only independent loads (Load), and no report reads IPC, MPKI
// or wall time.

// MPKI returns branch mispredictions per kilo-instruction.
func (c Counters) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.BranchMisses) / float64(c.Instructions)
}

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.Ctr.Instructions) / c.cycle
}

// LoadDep performs a dependent load: execution cannot proceed until the
// value arrives (e.g., a loaded value feeding the very next address
// computation). This is what makes pointer-chasing and
// read-modify-write irregular updates expensive.
func (c *Core) LoadDep(addr uint64) {
	done := c.load(addr)
	if done > c.cycle {
		c.cycle = done
	}
}

// Seconds converts the cycle count to wall time at the configured clock.
func (c *Core) Seconds() float64 { return c.cycle / (c.cfg.FreqGHz * 1e9) }
