package dist

// Cell -> job translation and servability. A cell is expressible as a
// cobrad job only when every field of its identity survives the wire
// round-trip exactly: the scheme must be a registry name (variant
// schemes like "COBRA[evict=8]" have no JobSpec spelling), the scale
// must be inside the registry bounds, and the architecture fingerprint
// must be one a worker would itself compute from the job — workers run
// the stock sim.DefaultArch, toggling NUCA before applying the core
// count exactly as srv.runJob does. Anything else (ablation cells with
// hand-modified caches) is declined and simulated locally, which
// preserves byte-identity by construction.

import (
	"cobra/internal/exp"
	"cobra/internal/mem"
	"cobra/internal/sim"
	"cobra/internal/srv"
)

// servableArchs are the architecture fingerprints a stock worker can
// reproduce for one core count, split by which NUCA flag to send.
type servableArchs struct {
	plain map[string]bool
	nuca  map[string]bool
}

// servable returns (memoized) the fingerprints a worker reaches for
// the given core count.
func (co *Coordinator) servable(cores int) servableArchs {
	if cores < 1 {
		cores = 1
	}
	co.fpmu.Lock()
	defer co.fpmu.Unlock()
	if s, ok := co.archFPs[cores]; ok {
		return s
	}
	s := servableArchs{plain: map[string]bool{}, nuca: map[string]bool{}}
	base := sim.DefaultArch()
	nucaArch := base
	nucaArch.Mem.NUCA = mem.DefaultNUCA() // NUCA first, cores second: srv.runJob's order
	if cores <= 1 {
		// The simulator treats NumCores 0 and 1 identically (both select
		// the single-core model) but their %+v fingerprints differ, so
		// accept either spelling of "single-core".
		s.plain[exp.ArchFingerprint(base)] = true
		s.plain[exp.ArchFingerprint(base.WithCores(1))] = true
		s.nuca[exp.ArchFingerprint(nucaArch)] = true
		s.nuca[exp.ArchFingerprint(nucaArch.WithCores(1))] = true
	} else {
		s.plain[exp.ArchFingerprint(base.WithCores(cores))] = true
		s.nuca[exp.ArchFingerprint(nucaArch.WithCores(cores))] = true
	}
	co.archFPs[cores] = s
	return s
}

// specFor translates a cell into the job a worker would run, or
// reports it unservable. The candidate spec is validated through the
// one shared path (exp.RunSpec.Validate) — no per-binary copy of the
// scheme/scale/cores checks.
func (co *Coordinator) specFor(k exp.CellKey) (srv.JobSpec, bool) {
	if k.Window != 0 {
		// Stream windows are not independently dispatchable: a window's
		// metrics are, but the functional state is sequential. Streamed
		// runs go to workers as whole stream jobs, never as cells.
		return srv.JobSpec{}, false
	}
	id, err := sim.ParseSchemeID(k.Scheme)
	if err != nil {
		// Variant schemes ("COBRA[evict=8]") have no JobSpec spelling.
		return srv.JobSpec{}, false
	}
	cores := k.Cores
	if cores < 1 {
		cores = 1
	}
	archs := co.servable(cores)
	var nuca bool
	switch {
	case archs.plain[k.Arch]:
		nuca = false
	case archs.nuca[k.Arch]:
		nuca = true
	default:
		return srv.JobSpec{}, false
	}
	spec := srv.JobSpec{RunSpec: exp.RunSpec{
		App:     k.App,
		Input:   k.Input,
		Scale:   k.Scale,
		Seed:    k.Seed,
		Schemes: []sim.SchemeID{id},
		Bins:    k.Bins,
		NUCA:    nuca,
		Cores:   cores,
	}}
	if spec.RunSpec.Validate() != nil {
		return srv.JobSpec{}, false
	}
	return spec, true
}

// FleetCellKey builds the canonical identity of an ad-hoc fleet cell
// (cobractl fleet run) from the one RunSpec: the stock architecture
// with the spec's NUCA and core knobs applied in the worker's own
// order, fingerprinted the same way the campaign code does.
func FleetCellKey(spec exp.RunSpec, scheme sim.SchemeID) exp.CellKey {
	return spec.CellKey("fleet", scheme, sim.DefaultArch())
}
