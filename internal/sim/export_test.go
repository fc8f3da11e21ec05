package sim

// Test hooks for the external sim_test package: the scalar-walk
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

// WithScalarWalk returns a copy of a whose machines' hierarchies take
// the scalar cache.Cache walk (the oracle the fast walk is verified
// against).
func (a Arch) WithScalarWalk() Arch {
	a.scalarWalk = true
	return a
}

// Merge folds m with rest, per MergeMetrics.
func (m Metrics) Merge(rest ...Metrics) Metrics {
	return MergeMetrics(append([]Metrics{m}, rest...))
}
