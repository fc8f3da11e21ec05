package sim

// Test hooks for the external sim_test package: the op-at-a-time
// oracle switch, and the machine pool's construction and checkout steps,
// reachable without going through the pool (whose hand-outs a test
// cannot force).

// BuildMach constructs a machine without consulting the pool.
var BuildMach = buildMach

// Recycle performs NewMach's checkout reset on a released machine.
func (m *Mach) Recycle() { m.recycle() }

// Released reports whether m is currently released to the pool.
func (m *Mach) Released() bool { return m.released }

// DrainPool empties the machine pool, so the next runs build fresh
// machines.
func DrainPool() {
	for machPool.Get() != nil {
	}
}

// WithOpAtATime returns a copy of a whose machines retire every
// micro-op as it is emitted, through an op buffer of capacity 1 (the
// oracle the batched pipeline is verified against).
func (a Arch) WithOpAtATime() Arch {
	a.opAtATime = true
	return a
}
